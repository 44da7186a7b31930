#include "sim/des.hpp"

#include "sim/des_system.hpp"
#include "util/contracts.hpp"

namespace fap::sim {

namespace {

// The warm-up + measurement loop shared by both run_des overloads: the
// engine is already initialized for `config` and at time 0.
DesResult measure(DesSystem& system, const DesConfig& config) {
  FAP_EXPECTS(config.measured_accesses > 0, "need a measurement budget");
  system.advance_until(config.warmup_time);
  system.reset_window();

  // Completions counted by advance_completions include accesses that were
  // already queued when the window opened (excluded from window stats), so
  // loop until the *window* has the requested number of measured samples.
  std::size_t measured = system.window().completions;
  while (measured < config.measured_accesses) {
    const std::size_t missing = config.measured_accesses - measured;
    const std::size_t made = system.advance_completions(missing);
    FAP_ENSURES(made > 0, "simulation stopped making progress");
    measured = system.window().completions;
  }

  const WindowStats& window = system.window();
  DesResult result;
  result.comm_cost = window.comm_cost;
  result.sojourn = window.sojourn;
  result.response_time = window.response_time;
  result.response_hist = window.response_hist;
  result.node = window.node;
  result.simulated_time = window.span;
  result.measured_cost =
      window.comm_cost.mean() + config.k * window.sojourn.mean();
  result.log = window.log;
  return result;
}

}  // namespace

// run_des is a convenience wrapper over the incremental engine: warm up,
// open a measurement window, collect the requested number of completions.
DesResult run_des(const DesConfig& config) {
  DesSystem system(config);
  return measure(system, config);
}

DesResult run_des(DesSystem& engine, const DesConfig& config) {
  engine.restart(config);
  return measure(engine, config);
}

DesConfig des_config_for(const core::SingleFileModel& model,
                         const std::vector<double>& x) {
  model.check_feasible(x);
  const std::size_t n = model.dimension();
  FAP_EXPECTS(model.problem().comm != nullptr &&
                  model.problem().comm->node_count() == n,
              "the DES needs c_ij for every node pair");
  DesConfig config;
  config.lambda = model.problem().lambda;
  config.mu = model.problem().mu;
  config.k = model.problem().k;
  config.routing.assign(n, x);  // every source routes ~ x
  config.comm_cost.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const net::CostRow row = model.problem().comm->row(j);
    config.comm_cost[j].assign(row.data(), row.data() + n);
  }
  return config;
}

DesConfig des_config_for(const core::RingModel& model,
                         const std::vector<double>& x) {
  model.check_feasible(x);
  const std::size_t n = model.dimension();
  DesConfig config;
  config.lambda = model.problem().lambda;
  config.mu = model.problem().mu;
  config.k = model.problem().k;
  config.routing = model.access_weights(x);
  config.comm_cost.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      config.comm_cost[j][i] = model.problem().ring.forward_distance(j, i);
    }
  }
  return config;
}

DesConfig des_config_for(const core::MultiFileModel& model,
                         const std::vector<double>& x) {
  model.check_feasible(x);
  const std::size_t n = model.node_count();
  const std::size_t files = model.file_count();
  DesConfig config;
  config.mu = model.problem().mu;
  config.k = model.problem().k;
  config.lambda.assign(n, 0.0);
  config.routing.assign(n, std::vector<double>(n, 0.0));
  config.comm_cost.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t f = 0; f < files; ++f) {
      config.lambda[j] += model.problem().per_file_lambda[f][j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      config.comm_cost[j][i] = model.problem().comm.cost(j, i);
      // Rate-weighted mixture of per-file target distributions.
      double weighted = 0.0;
      for (std::size_t f = 0; f < files; ++f) {
        weighted +=
            model.problem().per_file_lambda[f][j] * x[model.index(f, i)];
      }
      config.routing[j][i] =
          config.lambda[j] > 0.0 ? weighted / config.lambda[j] : 0.0;
    }
    if (config.lambda[j] == 0.0) {
      config.routing[j][j] = 1.0;  // unused, but keep the row a distribution
    }
  }
  return config;
}

double multi_file_expected_access_cost(const core::MultiFileModel& model,
                                       const std::vector<double>& x) {
  model.check_feasible(x);
  const std::size_t n = model.node_count();
  const std::size_t files = model.file_count();
  double total_rate = 0.0;
  for (std::size_t f = 0; f < files; ++f) {
    total_rate += model.file_rate(f);
  }
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = model.node_arrival_rate(x, i);
    const double sojourn =
        model.problem().delay.sojourn(a, model.problem().mu[i]);
    for (std::size_t f = 0; f < files; ++f) {
      const double xf = x[model.index(f, i)];
      if (xf > 0.0) {
        expected += model.file_rate(f) * xf *
                    (model.access_cost(f, i) + model.problem().k * sojourn);
      }
    }
  }
  return expected / total_rate;
}

}  // namespace fap::sim
