// Validation of the discrete-event simulator against closed-form queueing
// theory, and of the analytic cost model (Eq. 1) against the simulator —
// experiment A4's foundations.
#include "sim/des.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "queueing/delay.hpp"
#include "sim/des_system.hpp"
#include "util/contracts.hpp"

namespace {

namespace core = fap::core;
namespace sim = fap::sim;

// One isolated M/M/1 queue: a single node serving its own accesses.
sim::DesConfig single_queue_config(double lambda, double mu) {
  sim::DesConfig config;
  config.lambda = {lambda};
  config.mu = {mu};
  config.routing = {{1.0}};
  config.comm_cost = {{0.0}};
  config.measured_accesses = 200000;
  config.warmup_time = 500.0;
  config.seed = 42;
  return config;
}

TEST(Des, MM1SojournMatchesTheory) {
  const double lambda = 0.75;
  const double mu = 1.5;
  const sim::DesResult result = sim::run_des(single_queue_config(lambda, mu));
  const double theory = fap::queueing::mm1_sojourn_time(lambda, mu);
  // Within a generous multiple of the CI (queue sojourns are correlated,
  // so the iid CI understates the error).
  EXPECT_NEAR(result.sojourn.mean(), theory,
              0.05 * theory + 5.0 * result.sojourn.ci95_halfwidth());
}

TEST(Des, MM1UtilizationMatchesRho) {
  const double lambda = 0.9;
  const double mu = 1.5;
  const sim::DesResult result = sim::run_des(single_queue_config(lambda, mu));
  EXPECT_NEAR(result.node[0].utilization, lambda / mu, 0.02);
  EXPECT_NEAR(result.node[0].observed_arrival_rate, lambda, 0.05);
}

TEST(Des, MD1WaitingIsHalfOfMM1) {
  const double lambda = 0.9;
  const double mu = 1.5;
  sim::DesConfig config = single_queue_config(lambda, mu);
  config.service = sim::ServiceDistribution::kDeterministic;
  const sim::DesResult result = sim::run_des(config);
  const fap::queueing::DelayModel md1 = fap::queueing::DelayModel::md1();
  const double theory = md1.sojourn(lambda, mu);
  EXPECT_NEAR(result.sojourn.mean(), theory, 0.05 * theory);
}

TEST(Des, GammaServiceMatchesPollaczekKhinchine) {
  const double lambda = 0.7;
  const double mu = 1.5;
  const double scv = 0.5;
  sim::DesConfig config = single_queue_config(lambda, mu);
  config.service = sim::ServiceDistribution::kGamma;
  config.service_scv = scv;
  const sim::DesResult result = sim::run_des(config);
  const fap::queueing::DelayModel mg1 = fap::queueing::DelayModel::mg1(scv);
  const double theory = mg1.sojourn(lambda, mu);
  EXPECT_NEAR(result.sojourn.mean(), theory, 0.05 * theory);
}

TEST(Des, DeterministicAcrossRunsWithSameSeed) {
  const sim::DesConfig config = single_queue_config(0.5, 1.5);
  const sim::DesResult a = sim::run_des(config);
  const sim::DesResult b = sim::run_des(config);
  EXPECT_DOUBLE_EQ(a.sojourn.mean(), b.sojourn.mean());
  EXPECT_DOUBLE_EQ(a.measured_cost, b.measured_cost);
}

TEST(Des, SeedChangesTheSamplePath) {
  sim::DesConfig config = single_queue_config(0.5, 1.5);
  const sim::DesResult a = sim::run_des(config);
  config.seed = 43;
  const sim::DesResult b = sim::run_des(config);
  EXPECT_NE(a.sojourn.mean(), b.sojourn.mean());
}

TEST(Des, MeasuredCostMatchesAnalyticModelAtSeveralAllocations) {
  // The headline validation: Eq. 1 predicts the measured per-access cost
  // of the running system.
  const core::SingleFileModel model(core::make_paper_ring_problem());
  for (const std::vector<double>& x :
       {std::vector<double>{0.25, 0.25, 0.25, 0.25},
        std::vector<double>{0.8, 0.1, 0.1, 0.0},
        std::vector<double>{0.0, 0.0, 0.0, 1.0}}) {
    sim::DesConfig config = sim::des_config_for(model, x);
    config.measured_accesses = 150000;
    config.seed = 7;
    const sim::DesResult result = sim::run_des(config);
    const double analytic = model.cost(x);
    EXPECT_NEAR(result.measured_cost, analytic, 0.05 * analytic)
        << "allocation (" << x[0] << "," << x[1] << "," << x[2] << "," << x[3]
        << ")";
  }
}

TEST(Des, PerNodeArrivalRatesFollowTheAllocation) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const std::vector<double> x{0.5, 0.3, 0.2, 0.0};
  sim::DesConfig config = sim::des_config_for(model, x);
  config.measured_accesses = 150000;
  const sim::DesResult result = sim::run_des(config);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.node[i].observed_arrival_rate, x[i] * 1.0, 0.03)
        << "node " << i;
  }
}

TEST(Des, CommunicationCostMatchesWeightedShortestPaths) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const std::vector<double> x{0.25, 0.25, 0.25, 0.25};
  sim::DesConfig config = sim::des_config_for(model, x);
  config.measured_accesses = 100000;
  const sim::DesResult result = sim::run_des(config);
  // Expected comm per access: Σ_i x_i C_i = 1 on the symmetric ring.
  EXPECT_NEAR(result.comm_cost.mean(), 1.0, 0.02);
}

TEST(Des, RingRoutingMatchesRingModelCost) {
  const core::RingModel model{
      core::make_paper_ring_problem({4.0, 1.0, 1.0, 1.0})};
  const std::vector<double> x{0.5, 0.5, 0.5, 0.5};
  sim::DesConfig config = sim::des_config_for(model, x);
  config.measured_accesses = 150000;
  config.seed = 11;
  const sim::DesResult result = sim::run_des(config);
  // RingModel::cost is a rate; per access = cost / λ_total (λ_total = 1).
  const double analytic_per_access = model.cost(x) / 1.0;
  EXPECT_NEAR(result.measured_cost, analytic_per_access,
              0.05 * analytic_per_access);
}

TEST(Des, RingArrivalRatesMatchModel) {
  const core::RingModel model{
      core::make_paper_ring_problem({4.0, 1.0, 1.0, 1.0})};
  const std::vector<double> x{0.9, 0.5, 0.35, 0.25};
  sim::DesConfig config = sim::des_config_for(model, x);
  config.measured_accesses = 150000;
  const sim::DesResult result = sim::run_des(config);
  const std::vector<double> analytic = model.arrival_rates(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.node[i].observed_arrival_rate, analytic[i], 0.05)
        << "node " << i;
  }
}

TEST(Des, SojournHistogramLooksExponentialish) {
  // For an M/M/1 queue the sojourn time is exponential with rate μ - λ;
  // check the median against theory. With hop_latency 0 the response time
  // is the sojourn time bit for bit, so response_hist holds the sojourns.
  const double lambda = 0.5;
  const double mu = 1.5;
  const sim::DesResult result = sim::run_des(single_queue_config(lambda, mu));
  const double median_theory = std::log(2.0) / (mu - lambda);
  EXPECT_NEAR(result.response_hist.quantile(0.5), median_theory,
              0.1 * median_theory);
}

TEST(Des, RejectsMalformedConfigs) {
  sim::DesConfig config = single_queue_config(0.5, 1.5);
  config.routing = {{0.7}};  // row does not sum to 1
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  config = single_queue_config(0.5, 1.5);
  config.mu = {0.0};
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  // A generating node needs both the routing and the comm-cost matrix.
  config = single_queue_config(0.5, 1.5);
  config.comm_cost = {};
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  config = single_queue_config(0.5, 1.5);
  config.routing = {};
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  // Constructed, not run: an infinite rate schedules every generation at
  // t = 0, so a run would grow the event heap without bound.
  config = single_queue_config(0.5, 1.5);
  config.lambda = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(sim::DesSystem{config}, fap::util::PreconditionError);
  // Constructed, not run: gamma service with an infinite SCV would hand
  // std::gamma_distribution a zero shape.
  config = single_queue_config(0.5, 1.5);
  config.service = sim::ServiceDistribution::kGamma;
  config.service_scv = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim::DesSystem{config}, fap::util::PreconditionError);
}

}  // namespace
