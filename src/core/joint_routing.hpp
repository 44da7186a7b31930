// Joint file allocation and routing — the Section 8.2 integration the
// paper calls for: "it would be extremely useful to integrate file
// allocation with other network problems such as the classic routing
// problem ... the routing may well depend on the allocation of files
// itself for some networks, and it will be worthwhile to integrate the
// two problems."
//
// The dependency loop: the allocation x determines how much traffic each
// link carries; congested links are effectively more expensive; link
// costs determine the routes and hence the c_ji matrix; c_ji determines
// the optimal allocation. This module closes the loop by alternating:
//
//   1. route: shortest paths under effective link costs
//        cost_e = base_e · (1 + γ · flow_e)
//   2. measure: per-link flow induced by (x, routes):
//        each unit of λ_j x_i traffic traverses every link of the j→i
//        route (request + response, counted once with the cost already
//        accounting for the round trip, as in the base model)
//   3. allocate: run the Section 5 algorithm under the new c_ji
//
// with exponential damping on the flow estimates (classic remedy for
// route flapping). γ = 0 decouples the problems and reproduces the plain
// algorithm; γ > 0 spreads both the file and the traffic around
// bottleneck links (tested and benchmarked in ablation_joint_routing).
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "queueing/delay.hpp"

namespace fap::core {

struct JointRoutingProblem {
  net::Topology topology;   ///< base link costs = uncongested costs
  Workload workload;
  std::vector<double> mu;
  double k = 1.0;
  queueing::DelayModel delay;
  /// Congestion sensitivity γ: effective link cost multiplier per unit of
  /// flow. 0 = routing independent of allocation (the base model).
  double congestion_factor = 0.0;
};

struct JointRoutingOptions {
  AllocatorOptions allocator;
  /// Damping β on flow estimates: flow <- β·new + (1-β)·old.
  double damping = 0.5;
  std::size_t max_outer_iterations = 100;
  /// Outer convergence: allocation movement and γ-scaled flow movement
  /// both below this (L∞).
  double tol = 1e-6;
};

struct JointRoutingOuterRecord {
  std::size_t iteration = 0;
  double cost = 0.0;            ///< Eq. 1 under the iteration's c_ji
  double allocation_delta = 0.0;
  double flow_delta = 0.0;
};

struct JointRoutingResult {
  std::vector<double> x;
  net::CostMatrix comm{1};          ///< final congestion-adjusted matrix
  std::vector<double> link_flow;    ///< per topology edge, damped estimate
  double cost = 0.0;
  bool converged = false;
  std::size_t outer_iterations = 0;
  std::vector<JointRoutingOuterRecord> trace;
};

class JointRoutingOptimizer {
 public:
  JointRoutingOptimizer(JointRoutingProblem problem,
                        JointRoutingOptions options);

  /// Alternating optimization from `initial` (must be feasible: Σx = 1,
  /// x >= 0).
  JointRoutingResult run(const std::vector<double>& initial) const;

  /// Per-edge flow induced by allocation `x` when traffic follows
  /// least-cost routes under the given effective topology. Exposed for
  /// tests. Edge order matches topology.edges().
  std::vector<double> link_flows(const net::Topology& effective,
                                 const std::vector<double>& x) const;

  /// Effective topology for a flow estimate.
  net::Topology effective_topology(const std::vector<double>& flow) const;

 private:
  JointRoutingProblem problem_;
  JointRoutingOptions options_;
};

}  // namespace fap::core
