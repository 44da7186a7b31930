// Unit and property tests for the Eq. 1-2 cost model.
#include "core/single_file.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "core/cost_model.hpp"
#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace {

namespace core = fap::core;
using fap::util::PreconditionError;

core::SingleFileModel paper_model() {
  return core::SingleFileModel(core::make_paper_ring_problem());
}

TEST(SingleFileModel, AccessCostsOfPaperRing) {
  const core::SingleFileModel model = paper_model();
  // Symmetric unit-cost 4-ring with uniform λ: C_i = (0+1+2+1)/4 = 1 ∀i.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(model.access_cost(i), 1.0);
  }
  EXPECT_DOUBLE_EQ(model.total_rate(), 1.0);
}

TEST(SingleFileModel, CostAtUniformAllocationHandComputed) {
  const core::SingleFileModel model = paper_model();
  // x_i = 1/4: C = Σ x_i (C_i + k/(μ - λ x_i)) = 1 + 1/(1.5 - 0.25) = 1.8.
  EXPECT_NEAR(model.cost({0.25, 0.25, 0.25, 0.25}), 1.8, 1e-12);
}

TEST(SingleFileModel, CostAtIntegralAllocationHandComputed) {
  const core::SingleFileModel model = paper_model();
  // Whole file at one node: C = 1 + 1/(1.5 - 1) = 3.
  EXPECT_NEAR(model.cost({0.0, 0.0, 0.0, 1.0}), 3.0, 1e-12);
}

TEST(SingleFileModel, FragmentedBeatsIntegralOnTheSymmetricRing) {
  const core::SingleFileModel model = paper_model();
  EXPECT_LT(model.cost({0.25, 0.25, 0.25, 0.25}),
            model.cost({1.0, 0.0, 0.0, 0.0}));
}

TEST(SingleFileModel, GradientHandComputedAtUniform) {
  const core::SingleFileModel model = paper_model();
  // ∂C/∂x_i = C_i + kμ/(μ - λx_i)² = 1 + 1.5/1.5625 = 1.96.
  const std::vector<double> grad = model.gradient({0.25, 0.25, 0.25, 0.25});
  for (const double g : grad) {
    EXPECT_NEAR(g, 1.0 + 1.5 / (1.25 * 1.25), 1e-12);
  }
}

TEST(SingleFileModel, ZeroFragmentContributesNoCost) {
  const core::SingleFileModel model = paper_model();
  EXPECT_NEAR(model.cost({0.5, 0.5, 0.0, 0.0}),
              2.0 * 0.5 * (1.0 + 1.0 / (1.5 - 0.5)), 1e-12);
}

TEST(SingleFileModel, UtilityIsNegatedCost) {
  const core::SingleFileModel model = paper_model();
  const std::vector<double> x{0.4, 0.3, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(model.utility(x), -model.cost(x));
  const std::vector<double> du = model.marginal_utilities(x);
  const std::vector<double> grad = model.gradient(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(du[i], -grad[i]);
  }
}

// Property sweep: closed-form derivatives must match numeric
// differentiation on random problems at random interior points.
class SingleFileDerivativeTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleFileDerivativeTest, GradientMatchesNumeric) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 9));
  const std::vector<double> x = fap::testing::random_feasible(model, seed + 1);
  const auto f = [&model](const std::vector<double>& v) {
    return model.cost(v);
  };
  const std::vector<double> numeric = fap::util::numeric_gradient(f, x);
  const std::vector<double> analytic = model.gradient(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i], 1e-4 * (1.0 + std::fabs(numeric[i])))
        << "seed=" << seed << " i=" << i;
  }
}

TEST_P(SingleFileDerivativeTest, SecondDerivativeMatchesNumeric) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 9));
  const std::vector<double> x = fap::testing::random_feasible(model, seed + 2);
  const auto f = [&model](const std::vector<double>& v) {
    return model.cost(v);
  };
  const std::vector<double> analytic = model.second_derivative(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double numeric = fap::util::numeric_second_derivative(f, x, i);
    EXPECT_NEAR(analytic[i], numeric, 1e-2 * (1.0 + std::fabs(numeric)))
        << "seed=" << seed << " i=" << i;
  }
}

TEST_P(SingleFileDerivativeTest, CostIsConvexAlongRandomFeasibleSegments) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 5));
  const std::vector<double> a = fap::testing::random_feasible(model, seed + 3);
  const std::vector<double> b = fap::testing::random_feasible(model, seed + 4);
  std::vector<double> mid(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    mid[i] = 0.5 * (a[i] + b[i]);
  }
  EXPECT_LE(model.cost(mid), 0.5 * model.cost(a) + 0.5 * model.cost(b) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, SingleFileDerivativeTest,
                         ::testing::Range(1, 13));

TEST(SingleFileModel, DerivativeBoundsHoldOverSampledAllocations) {
  const core::SingleFileModel model = paper_model();
  const core::DerivativeBounds bounds = model.derivative_bounds();
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<double> x = fap::testing::random_feasible(model, seed);
    const std::vector<double> grad = model.gradient(x);
    const std::vector<double> hess = model.second_derivative(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(grad[i], bounds.grad_min - 1e-9);
      EXPECT_LE(grad[i], bounds.grad_max + 1e-9);
      EXPECT_LE(hess[i], bounds.hess_max + 1e-9);
      EXPECT_GE(hess[i], 0.0);  // convexity
    }
  }
}

TEST(SingleFileModel, DerivativeBoundsClosedForm) {
  const core::SingleFileModel model = paper_model();
  const core::DerivativeBounds bounds = model.derivative_bounds();
  // (b)-(d) from the appendix with C_max = C_min = 1, μ = 1.5, λ = k = 1.
  EXPECT_NEAR(bounds.grad_min, 1.0 + 1.0 / 1.5, 1e-12);
  EXPECT_NEAR(bounds.grad_max, 1.0 + 1.5 / 0.25, 1e-12);
  EXPECT_NEAR(bounds.hess_max, 2.0 * 1.5 / 0.125, 1e-12);
}

TEST(SingleFileModel, Theorem2BoundIsPositiveAndScalesWithEpsilonSquared) {
  const core::SingleFileModel model = paper_model();
  const double bound1 = model.theorem2_alpha_bound(1e-3);
  const double bound2 = model.theorem2_alpha_bound(2e-3);
  EXPECT_GT(bound1, 0.0);
  EXPECT_NEAR(bound2 / bound1, 4.0, 1e-9);
  // The paper notes this bound is very conservative: far below the
  // empirically fast α ≈ 0.3-0.7.
  EXPECT_LT(bound1, 1e-6);
}

TEST(SingleFileModel, QueryUpdateSplitShiftsCommCosts) {
  // Node 0 issues only updates, node 2 only queries; updates 5x heavier.
  const fap::net::Topology ring = fap::net::make_ring(4, 1.0);
  core::QueryUpdateWorkload workload;
  workload.query_rate = {0.0, 0.1, 0.3, 0.1};
  workload.update_rate = {0.3, 0.1, 0.0, 0.1};
  workload.query_comm_weight = 1.0;
  workload.update_comm_weight = 5.0;

  core::SingleFileProblem problem =
      core::make_problem(ring, workload.combined(), /*mu=*/2.0, /*k=*/1.0);
  problem.comm_weight_rates = workload.comm_weight_rates();
  const core::SingleFileModel model(std::move(problem));

  // Heavy updates from node 0 make hosting *near node 0* cheap: C_0 must
  // be strictly below C_2 (which only light queries care about).
  EXPECT_LT(model.access_cost(0), model.access_cost(2));
}

TEST(SingleFileModel, HeterogeneousServiceRatesFavorFastNodes) {
  fap::core::SingleFileProblem problem = core::make_paper_ring_problem();
  problem.mu = {5.0, 1.5, 1.5, 1.5};  // node 0 much faster
  const core::SingleFileModel model(std::move(problem));
  const std::vector<double> grad = model.gradient({0.25, 0.25, 0.25, 0.25});
  // Marginal cost of adding file at the fast node is strictly lower.
  EXPECT_LT(grad[0], grad[1]);
}

TEST(SingleFileModel, WorkloadHelpers) {
  const core::Workload w = core::Workload::uniform(4, 2.0);
  EXPECT_DOUBLE_EQ(w.total(), 2.0);
  EXPECT_DOUBLE_EQ(w.lambda[3], 0.5);
  EXPECT_THROW(core::Workload::uniform(0, 1.0), PreconditionError);
  EXPECT_THROW(core::Workload::uniform(3, 0.0), PreconditionError);
}

TEST(SingleFileModel, RejectsInvalidConstruction) {
  // λ >= μ with a pure delay model must be rejected.
  const fap::net::Topology ring = fap::net::make_ring(4, 1.0);
  EXPECT_THROW(core::SingleFileModel(core::make_problem(
                   ring, core::Workload::uniform(4, 2.0), /*mu=*/1.5, 1.0)),
               PreconditionError);
  // ... but allowed with a linearized delay model.
  EXPECT_NO_THROW(core::SingleFileModel(core::make_problem(
      ring, core::Workload::uniform(4, 2.0), /*mu=*/1.5, 1.0,
      fap::queueing::DelayModel::mm1(0.9))));
  // c_ij comes only from the provider: without one the model needs an
  // access-cost override ...
  core::SingleFileProblem problem = core::make_paper_ring_problem();
  problem.comm = nullptr;
  EXPECT_THROW(core::SingleFileModel{problem}, PreconditionError);
  problem.access_cost_override = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NO_THROW(core::SingleFileModel{problem});
  // ... and a provider must cover exactly the problem's nodes.
  problem = core::make_paper_ring_problem();
  problem.comm = std::make_shared<fap::net::RowCostProvider>(
      fap::net::make_ring(5, 1.0));
  EXPECT_THROW(core::SingleFileModel{problem}, PreconditionError);
  // Non-finite inputs fail here, as BatchAllocator::submit fails them,
  // not as a converged +inf cost or a negative allocation one step later.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  problem = core::make_paper_ring_problem();
  problem.k = kInf;
  EXPECT_THROW(core::SingleFileModel{problem}, PreconditionError);
  problem = core::make_paper_ring_problem();
  problem.delay = fap::queueing::DelayModel::mm1(0.9);  // no rate bound
  problem.lambda[0] = kInf;
  EXPECT_THROW(core::SingleFileModel{problem}, PreconditionError);
  for (const double cost : {std::numeric_limits<double>::quiet_NaN(), kInf}) {
    problem = core::make_paper_ring_problem();
    problem.access_cost_override = {1.0, cost, 3.0, 4.0};
    EXPECT_THROW(core::SingleFileModel{problem}, PreconditionError);
  }
}

TEST(SingleFileModel, CheckFeasibleValidates) {
  const core::SingleFileModel model = paper_model();
  EXPECT_NO_THROW(model.check_feasible({0.25, 0.25, 0.25, 0.25}));
  EXPECT_THROW(model.check_feasible({0.5, 0.5, 0.5, 0.5}),
               PreconditionError);  // sums to 2
  EXPECT_THROW(model.check_feasible({1.5, -0.5, 0.0, 0.0}),
               PreconditionError);  // negative entry
  EXPECT_THROW(model.check_feasible({1.0}), PreconditionError);  // dimension
  EXPECT_TRUE(core::is_feasible(model, {1.0, 0.0, 0.0, 0.0}));
  EXPECT_FALSE(core::is_feasible(model, {1.0, 0.1, 0.0, 0.0}));
}

// Row and implicit providers are drop-in replacements for the dense one:
// the assembled C_i, and therefore every downstream cost/gradient, must be
// byte-identical — not merely close — to the dense-backed model.
void expect_models_bitwise_equal(const core::SingleFileModel& dense,
                                 const core::SingleFileModel& provider,
                                 std::uint64_t seed) {
  ASSERT_EQ(dense.dimension(), provider.dimension());
  for (std::size_t i = 0; i < dense.dimension(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.access_cost(i)),
              std::bit_cast<std::uint64_t>(provider.access_cost(i)))
        << "C_" << i;
  }
  const std::vector<double> x = fap::testing::random_feasible(dense, seed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dense.cost(x)),
            std::bit_cast<std::uint64_t>(provider.cost(x)));
  const std::vector<double> dg = dense.gradient(x);
  const std::vector<double> pg = provider.gradient(x);
  for (std::size_t i = 0; i < dg.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dg[i]),
              std::bit_cast<std::uint64_t>(pg[i]))
        << "grad " << i;
  }
}

TEST(SingleFileModel, RowProviderModelMatchesDenseBitwise) {
  fap::util::Rng rng(17);
  const fap::net::Topology topology =
      fap::net::make_random_metric(12, 3, rng);
  core::Workload workload;
  workload.lambda = {0.05, 0.1, 0.02, 0.08, 0.04, 0.11,
                     0.03, 0.07, 0.09, 0.06, 0.01, 0.12};
  const core::SingleFileModel dense(
      core::make_problem(topology, workload, /*mu=*/2.0, /*k=*/1.0));
  const core::SingleFileModel rows(core::make_problem(
      std::make_shared<fap::net::RowCostProvider>(topology,
                                                  /*row_cache_capacity=*/4),
      workload, /*mu=*/2.0, /*k=*/1.0));
  expect_models_bitwise_equal(dense, rows, 41);
}

TEST(SingleFileModel, HierarchicalProviderModelMatchesDenseBitwise) {
  const fap::net::TieredNetwork tiered = fap::net::make_geo_tiers(2, 2, 2);
  const core::Workload workload =
      core::Workload::uniform(tiered.topology.node_count(), 1.0);
  const core::SingleFileModel dense(
      core::make_problem(tiered.topology, workload, /*mu=*/2.0, /*k=*/1.0));
  const core::SingleFileModel implicit(core::make_problem(
      std::make_shared<fap::net::HierarchicalCostProvider>(tiered.spec),
      workload, /*mu=*/2.0, /*k=*/1.0));
  expect_models_bitwise_equal(dense, implicit, 43);
}

TEST(SingleFileModel, ProviderMakeProblemValidatesNodeCounts) {
  const fap::net::Topology ring = fap::net::make_ring(4, 1.0);
  // 5-node workload against a 4-node provider must be rejected.
  EXPECT_THROW(
      core::make_problem(std::make_shared<fap::net::RowCostProvider>(ring),
                         core::Workload::uniform(5, 1.0), 2.0, 1.0),
      PreconditionError);
}

TEST(SingleFileModel, UniformAllocationHelper) {
  const core::SingleFileModel model = paper_model();
  const std::vector<double> x = core::uniform_allocation(model);
  for (const double xi : x) {
    EXPECT_DOUBLE_EQ(xi, 0.25);
  }
}

}  // namespace
