#include "sim/estimation.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fap::sim {

EstimatedParameters estimate_parameters(
    const std::vector<AccessObservation>& log, std::size_t node_count) {
  FAP_EXPECTS(node_count >= 1, "need at least one node");
  FAP_EXPECTS(!log.empty(), "cannot estimate from an empty log");

  double first_arrival = log.front().arrival_time;
  double last_departure = log.front().departure_time;
  std::vector<std::size_t> generated(node_count, 0);
  std::vector<std::size_t> served(node_count, 0);
  std::vector<double> service_time(node_count, 0.0);
  double comm_total = 0.0;

  for (const AccessObservation& obs : log) {
    FAP_EXPECTS(obs.source < node_count && obs.target < node_count,
                "observation references an unknown node");
    FAP_EXPECTS(obs.departure_time >= obs.service_start &&
                    obs.service_start >= obs.arrival_time,
                "observation timestamps out of order");
    first_arrival = std::min(first_arrival, obs.arrival_time);
    last_departure = std::max(last_departure, obs.departure_time);
    ++generated[obs.source];
    ++served[obs.target];
    service_time[obs.target] += obs.departure_time - obs.service_start;
    comm_total += obs.comm_cost;
  }

  EstimatedParameters estimates;
  estimates.samples = log.size();
  estimates.window = std::max(last_departure - first_arrival, 1e-12);
  estimates.mean_comm_cost = comm_total / static_cast<double>(log.size());
  estimates.lambda.assign(node_count, 0.0);
  estimates.mu.assign(node_count, 0.0);
  estimates.mu_observed.assign(node_count, false);
  estimates.service_mix.assign(node_count, 0.0);
  for (std::size_t i = 0; i < node_count; ++i) {
    estimates.lambda[i] =
        static_cast<double>(generated[i]) / estimates.window;
    estimates.service_mix[i] =
        static_cast<double>(served[i]) / static_cast<double>(log.size());
    if (served[i] >= kMinServiceSamples && service_time[i] > 0.0) {
      // MLE for exponential service: completions per unit busy time.
      estimates.mu[i] = static_cast<double>(served[i]) / service_time[i];
      estimates.mu_observed[i] = true;
    }
  }
  return estimates;
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
