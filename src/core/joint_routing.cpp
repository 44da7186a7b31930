#include "core/joint_routing.hpp"

#include <memory>
#include <unordered_map>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::core {

namespace {

// After this many outer iterations the routing is frozen (flows and the
// cost matrix stop updating) and only the allocation continues to a fixed
// point. Routing is a discrete choice, so near a tie the route can flip
// indefinitely as flows drift — the same discontinuity-driven oscillation
// the paper meets in Section 7.3, remedied the same way (stop moving the
// discontinuous part).
constexpr std::size_t kFreezeRoutingAfter = 50;

// Canonical key for an undirected edge.
std::uint64_t edge_key(std::size_t u, std::size_t v, std::size_t n) {
  const std::size_t lo = std::min(u, v);
  const std::size_t hi = std::max(u, v);
  return static_cast<std::uint64_t>(lo) * n + hi;
}

}  // namespace

JointRoutingOptimizer::JointRoutingOptimizer(JointRoutingProblem problem,
                                             JointRoutingOptions options)
    : problem_(std::move(problem)), options_(options) {
  FAP_EXPECTS(problem_.workload.lambda.size() == problem_.topology.node_count(),
              "workload size must match node count");
  FAP_EXPECTS(problem_.mu.size() == problem_.topology.node_count(),
              "mu size must match node count");
  FAP_EXPECTS(problem_.congestion_factor >= 0.0,
              "congestion factor must be non-negative");
  FAP_EXPECTS(options_.damping > 0.0 && options_.damping <= 1.0,
              "damping must be in (0, 1]");
  FAP_EXPECTS(options_.max_outer_iterations >= 1, "need outer iterations");
  FAP_EXPECTS(options_.tol > 0.0, "tolerance must be positive");
  FAP_EXPECTS(problem_.topology.connected(), "topology must be connected");
}

net::Topology JointRoutingOptimizer::effective_topology(
    const std::vector<double>& flow) const {
  const auto& edges = problem_.topology.edges();
  FAP_EXPECTS(flow.size() == edges.size(), "one flow value per edge");
  net::Topology effective(problem_.topology.node_count());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    FAP_EXPECTS(flow[e] >= 0.0, "flows must be non-negative");
    effective.add_edge(
        edges[e].u, edges[e].v,
        edges[e].cost * (1.0 + problem_.congestion_factor * flow[e]));
  }
  return effective;
}

std::vector<double> JointRoutingOptimizer::link_flows(
    const net::Topology& effective, const std::vector<double>& x) const {
  const std::size_t n = effective.node_count();
  FAP_EXPECTS(x.size() == n, "allocation size mismatch");

  // Edge index lookup for flow accumulation.
  std::unordered_map<std::uint64_t, std::size_t> index;
  const auto& edges = problem_.topology.edges();
  index.reserve(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    index[edge_key(edges[e].u, edges[e].v, n)] = e;
  }

  // Hop-by-hop least-cost forwarding tables (one per node). Consistent
  // shortest-path forwarding is loop-free for positive link costs.
  std::vector<std::vector<net::NodeId>> next(n);
  for (std::size_t node = 0; node < n; ++node) {
    next[node] = net::dijkstra_next_hops(effective, node);
  }

  std::vector<double> flow(edges.size(), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double rate = problem_.workload.lambda[j];
    if (rate <= 0.0) {
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double traffic = rate * x[i];
      if (traffic <= 0.0 || i == j) {
        continue;
      }
      std::size_t current = j;
      std::size_t hops = 0;
      while (current != i) {
        const std::size_t hop = next[current][i];
        const auto it = index.find(edge_key(current, hop, n));
        FAP_ENSURES(it != index.end(), "forwarding used a non-edge");
        flow[it->second] += traffic;
        current = hop;
        FAP_ENSURES(++hops <= n, "forwarding loop detected");
      }
    }
  }
  return flow;
}

JointRoutingResult JointRoutingOptimizer::run(
    const std::vector<double>& initial) const {
  const std::size_t n = problem_.topology.node_count();
  FAP_EXPECTS(initial.size() == n, "initial allocation size mismatch");

  JointRoutingResult result;
  result.x = initial;
  result.link_flow.assign(problem_.topology.edge_count(), 0.0);
  result.comm = net::CostMatrix(n);

  for (std::size_t outer = 0; outer < options_.max_outer_iterations;
       ++outer) {
    const bool frozen = outer >= kFreezeRoutingAfter;

    // 1. Route under the current (damped) flow estimate.
    const net::Topology effective = effective_topology(result.link_flow);
    const auto comm = std::make_shared<const net::CostMatrix>(
        net::all_pairs_shortest_paths(effective));

    // 2. Allocate under the induced c_ji.
    SingleFileProblem sub{std::make_shared<net::DenseCostProvider>(comm),
                          problem_.workload.lambda,
                          problem_.mu,
                          problem_.k,
                          problem_.delay,
                          /*comm_weight_rates=*/{},
                          /*storage_capacity=*/{},
                          /*access_cost_override=*/{}};
    const SingleFileModel model(std::move(sub));
    const ResourceDirectedAllocator allocator(model, options_.allocator);
    const AllocationResult inner = allocator.run(result.x);

    // 3. Measure the flow this allocation induces, with damping —
    // unless routing is frozen (the Section 7.3-style anti-flapping
    // remedy: stop moving the discontinuous part).
    double flow_delta = 0.0;
    if (!frozen) {
      const std::vector<double> raw = link_flows(effective, inner.x);
      std::vector<double> damped(raw.size(), 0.0);
      for (std::size_t e = 0; e < raw.size(); ++e) {
        damped[e] = options_.damping * raw[e] +
                    (1.0 - options_.damping) * result.link_flow[e];
      }
      flow_delta = util::linf_distance(damped, result.link_flow);
      result.link_flow = std::move(damped);
    }

    const double allocation_delta = util::linf_distance(inner.x, result.x);
    result.trace.push_back(JointRoutingOuterRecord{
        outer, inner.cost, allocation_delta, flow_delta});

    result.x = inner.x;
    result.cost = inner.cost;
    result.comm = *comm;
    ++result.outer_iterations;

    // Flow movement only matters through its effect on link costs, so the
    // criterion is scaled by γ (with γ = 0 routing is static and the
    // allocation criterion alone decides).
    if (allocation_delta < options_.tol &&
        problem_.congestion_factor * flow_delta < options_.tol) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace fap::core
