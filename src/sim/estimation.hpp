// Measurement-driven parameter estimation — the Section 8 adaptive
// scenario: "The possibility also exists of using the algorithm to
// adaptively change the file allocation as the nodal file access
// characteristics change dynamically. The performance of such an adaptive
// scheme, however, would crucially depend on the ability of all nodes to
// accurately estimate the values for changing system parameters."
//
// This module turns per-node access sums (kept by every DesSystem window)
// or an access log (from the discrete-event simulator, or a real
// monitoring system) into estimates of exactly those parameters:
// per-node access generation rates λ_i, per-node service rates μ_i, and
// the realized routing mix. Together with the (known) network costs they
// instantiate a SingleFileProblem, so the optimizer can run on *measured*
// rather than assumed parameters — closing the adaptive loop demonstrated
// in examples/measurement_driven and examples/live_adaptation and tested
// in tests/sim_estimation_test.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/single_file.hpp"
#include "net/cost_provider.hpp"
#include "sim/des.hpp"

namespace fap::sim {

/// Parameter estimates derived from observed accesses.
struct EstimatedParameters {
  /// λ̂_i: accesses generated by node i per unit time.
  std::vector<double> lambda;
  /// μ̂_i: service completions per unit busy time at node i; 0 when the
  /// node served nothing in the window (see mu_observed).
  std::vector<double> mu;
  /// True when node i served at least kMinServiceSamples accesses, i.e.
  /// μ̂_i is trustworthy.
  std::vector<bool> mu_observed;
  /// Realized service mix: fraction of all accesses served at node i
  /// (an estimate of the routing probabilities / allocation in force).
  std::vector<double> service_mix;
  /// Mean communication cost actually paid per access.
  double mean_comm_cost = 0.0;
  /// Measurement window: [first arrival, last departure].
  double window = 0.0;
  std::size_t samples = 0;
};

/// Nodes with fewer served accesses than this get mu_observed = false.
inline constexpr std::size_t kMinServiceSamples = 30;

/// Estimates workload and service parameters for the sums' nodes. λ̂ by
/// per-source counting over [first arrival, last departure]; μ̂ by the
/// maximum-likelihood estimator for exponential service, total
/// completions over total observed service time. A DesSystem window's
/// WindowStats::sums are the input; throws if they hold no completion.
EstimatedParameters estimate_parameters(const AccessSums& sums);

/// The same estimate from an access log of an n-node system: the log is
/// folded into AccessSums in order, so the result is bit-identical to the
/// sums a DesSystem window kept for the same completions.
EstimatedParameters estimate_parameters(
    const std::vector<AccessObservation>& log, std::size_t node_count);

/// Builds an optimizable problem from estimates plus the known network
/// costs and delay weight; the problem shares `comm`. Nodes whose μ was
/// unobserved receive `fallback_mu` (e.g. the nominal hardware rate or
/// the mean of observed rates). Throws if the estimated workload would be
/// unstable for the chosen rates under a pure delay model.
core::SingleFileProblem problem_from_estimates(
    const EstimatedParameters& estimates,
    std::shared_ptr<const net::CostProvider> comm, double k,
    double fallback_mu, queueing::DelayModel delay = queueing::DelayModel());

}  // namespace fap::sim
