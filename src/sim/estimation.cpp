#include "sim/estimation.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fap::sim {

EstimatedParameters estimate_parameters(const AccessSums& sums) {
  const std::size_t node_count = sums.served.size();
  FAP_EXPECTS(node_count >= 1, "need at least one node");
  FAP_EXPECTS(sums.generated.size() == node_count &&
                  sums.service_time.size() == node_count,
              "access sums size mismatch");
  FAP_EXPECTS(sums.samples > 0,
              "cannot estimate from a window with no completions");
  const double samples = static_cast<double>(sums.samples);

  EstimatedParameters estimates;
  estimates.samples = sums.samples;
  estimates.window =
      std::max(sums.last_departure - sums.first_arrival, 1e-12);
  estimates.mean_comm_cost = sums.comm_cost / samples;
  estimates.lambda.assign(node_count, 0.0);
  estimates.mu.assign(node_count, 0.0);
  estimates.mu_observed.assign(node_count, false);
  estimates.service_mix.assign(node_count, 0.0);
  for (std::size_t i = 0; i < node_count; ++i) {
    estimates.lambda[i] =
        static_cast<double>(sums.generated[i]) / estimates.window;
    estimates.service_mix[i] = static_cast<double>(sums.served[i]) / samples;
    if (sums.served[i] >= kMinServiceSamples && sums.service_time[i] > 0.0) {
      // MLE for exponential service: completions per unit busy time.
      estimates.mu[i] =
          static_cast<double>(sums.served[i]) / sums.service_time[i];
      estimates.mu_observed[i] = true;
    }
  }
  return estimates;
}

EstimatedParameters estimate_parameters(
    const std::vector<AccessObservation>& log, std::size_t node_count) {
  FAP_EXPECTS(node_count >= 1, "need at least one node");
  FAP_EXPECTS(!log.empty(), "cannot estimate from an empty log");
  AccessSums sums;
  sums.reset(node_count);
  for (const AccessObservation& obs : log) {
    FAP_EXPECTS(obs.source < node_count && obs.target < node_count,
                "observation references an unknown node");
    FAP_EXPECTS(obs.departure_time >= obs.service_start &&
                    obs.service_start >= obs.arrival_time,
                "observation timestamps out of order");
    sums.add(obs);
  }
  return estimate_parameters(sums);
}

core::SingleFileProblem problem_from_estimates(
    const EstimatedParameters& estimates,
    std::shared_ptr<const net::CostProvider> comm, double k,
    double fallback_mu, queueing::DelayModel delay) {
  FAP_EXPECTS(comm != nullptr && estimates.lambda.size() == comm->node_count(),
              "estimate / cost-provider size mismatch");
  FAP_EXPECTS(fallback_mu > 0.0, "fallback service rate must be positive");
  core::SingleFileProblem problem{std::move(comm),
                                  estimates.lambda,
                                  estimates.mu,
                                  k,
                                  delay,
                                  /*comm_weight_rates=*/{},
                                  /*storage_capacity=*/{},
                                  /*access_cost_override=*/{}};
  for (std::size_t i = 0; i < problem.mu.size(); ++i) {
    if (!estimates.mu_observed[i] || problem.mu[i] <= 0.0) {
      problem.mu[i] = fallback_mu;
    }
  }
  return problem;
}

}  // namespace fap::sim
