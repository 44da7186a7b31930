// Tests for the second-derivative algorithm (Section 8.2): same optima and
// invariants as the first-order algorithm, plus the two properties the
// paper claims for it — scale resilience and step-size tolerance.
#include "core/newton_allocator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/projected_gradient.hpp"
#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;

core::SingleFileModel paper_model() {
  return core::SingleFileModel(core::make_paper_ring_problem());
}

core::NewtonAllocatorOptions newton_options(double alpha) {
  core::NewtonAllocatorOptions options;
  options.alpha = alpha;
  options.epsilon = 1e-3;
  options.record_trace = true;
  return options;
}

TEST(NewtonAllocator, ConvergesOnThePaperRing) {
  const core::SingleFileModel model = paper_model();
  const core::NewtonAllocator allocator(model, newton_options(0.5));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

class NewtonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NewtonPropertyTest, FeasibleAndMonotoneAtEveryIteration) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 7));
  core::NewtonAllocatorOptions options = newton_options(0.3);
  options.max_iterations = 2000;
  const core::NewtonAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed + 3));
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    EXPECT_NEAR(fap::util::sum(result.trace[t].x), 1.0, 1e-9);
    for (const double xi : result.trace[t].x) {
      EXPECT_GE(xi, 0.0);
    }
    if (t > 0) {
      EXPECT_LE(result.trace[t].cost, result.trace[t - 1].cost + 1e-10);
    }
  }
}

TEST_P(NewtonPropertyTest, ReachesTheSameOptimumAsFirstOrder) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 7));
  core::NewtonAllocatorOptions options;
  options.alpha = 0.5;
  options.epsilon = 1e-7;
  options.max_iterations = 100000;
  const core::NewtonAllocator newton(model, options);
  const core::AllocationResult newton_result =
      newton.run(fap::testing::random_feasible(model, seed + 5));
  ASSERT_TRUE(newton_result.converged);

  const fap::baselines::ProjectedGradientResult reference =
      fap::baselines::projected_gradient_solve(
          model, core::uniform_allocation(model));
  EXPECT_NEAR(newton_result.cost, reference.cost,
              1e-5 * (1.0 + std::fabs(reference.cost)));
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, NewtonPropertyTest,
                         ::testing::Range(1, 9));

TEST(NewtonAllocator, ScaleInvarianceOfTheIterationPath) {
  // Multiply every cost in the problem (link costs and k) by 100: the
  // first-order algorithm with fixed α behaves very differently, while the
  // second-derivative algorithm's trajectory is unchanged (Section 8.2:
  // "resilient to changes in the scale of the problem").
  fap::core::SingleFileProblem base = core::make_paper_ring_problem();
  fap::core::SingleFileProblem scaled = base;
  const double factor = 100.0;
  fap::net::CostMatrix comm(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      comm.set_cost(i, j, base.comm->cost(i, j) * factor);
    }
  }
  scaled.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(std::move(comm)));
  scaled.k = base.k * factor;
  const core::SingleFileModel model_base(base);
  const core::SingleFileModel model_scaled(scaled);

  core::NewtonAllocatorOptions options;
  options.alpha = 0.5;
  options.epsilon = 1e-3;
  options.record_trace = true;
  options.max_iterations = 1000;
  // ε is a spread of marginal utilities, which scales with the problem;
  // scale it to keep the termination point comparable.
  core::NewtonAllocatorOptions options_scaled = options;
  options_scaled.epsilon = options.epsilon * factor;

  const core::NewtonAllocator newton_base(model_base, options);
  const core::NewtonAllocator newton_scaled(model_scaled, options_scaled);
  const core::AllocationResult r1 = newton_base.run({0.8, 0.1, 0.1, 0.0});
  const core::AllocationResult r2 = newton_scaled.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t t = 0; t < r1.trace.size(); ++t) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(r1.trace[t].x[i], r2.trace[t].x[i], 1e-9);
    }
  }
}

TEST(NewtonAllocator, FirstOrderIsNotScaleInvariant) {
  // Control for the previous test: scaling every cost *down* by 100 makes
  // the first-order algorithm's fixed-α steps 100x smaller, changing its
  // iteration count dramatically. (Scaling *up* instead hits the θ
  // overshoot clipping, which is itself scale-invariant.)
  fap::core::SingleFileProblem base = core::make_paper_ring_problem();
  fap::core::SingleFileProblem scaled = base;
  const double factor = 0.01;
  fap::net::CostMatrix comm(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      comm.set_cost(i, j, base.comm->cost(i, j) * factor);
    }
  }
  scaled.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(std::move(comm)));
  scaled.k = base.k * factor;
  const core::SingleFileModel model_base(base);
  const core::SingleFileModel model_scaled(scaled);
  core::AllocatorOptions options;
  options.alpha = 0.3;
  options.epsilon = 1e-3;
  options.max_iterations = 100000;
  core::AllocatorOptions options_scaled = options;
  options_scaled.epsilon = options.epsilon * factor;
  const core::ResourceDirectedAllocator first_base(model_base, options);
  const core::ResourceDirectedAllocator first_scaled(model_scaled,
                                                     options_scaled);
  const auto r1 = first_base.run({0.8, 0.1, 0.1, 0.0});
  const auto r2 = first_scaled.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_NE(r1.iterations, r2.iterations);
}

TEST(NewtonAllocator, WideStepSizeToleranceOnThePaperRing) {
  // Section 8.2: "using second derivatives increases the tolerance of the
  // algorithm towards the selection of the stepsize parameter". Every α
  // across two orders of magnitude must converge to the optimum.
  const core::SingleFileModel model = paper_model();
  for (const double alpha : {0.05, 0.2, 0.5, 1.0}) {
    core::NewtonAllocatorOptions options;
    options.alpha = alpha;
    options.epsilon = 1e-3;
    options.max_iterations = 100000;
    const core::NewtonAllocator allocator(model, options);
    const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
    ASSERT_TRUE(result.converged) << "alpha=" << alpha;
    EXPECT_NEAR(result.cost, 1.8, 1e-3) << "alpha=" << alpha;
  }
}

TEST(NewtonAllocator, RejectsInvalidOptions) {
  const core::SingleFileModel model = paper_model();
  core::NewtonAllocatorOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(core::NewtonAllocator(model, bad),
               fap::util::PreconditionError);
}

}  // namespace
