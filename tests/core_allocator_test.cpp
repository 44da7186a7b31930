// Tests for the Section 5.2 algorithm: the four formally proven properties
// (optimality at convergence, feasibility, monotonicity, convergence) plus
// the reproduction of the paper's iteration counts, as unit and
// parameterized property tests.
#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "baselines/projected_gradient.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
using fap::util::PreconditionError;

core::SingleFileModel paper_model() {
  return core::SingleFileModel(core::make_paper_ring_problem());
}

core::AllocatorOptions paper_options(double alpha) {
  core::AllocatorOptions options;
  options.alpha = alpha;
  options.epsilon = 1e-3;
  options.record_trace = true;
  return options;
}

// --- Reproduction of the paper's Figure 3 iteration counts -------------

struct Figure3Case {
  double alpha;
  std::size_t paper_iterations;
};

class Figure3Test : public ::testing::TestWithParam<Figure3Case> {};

TEST_P(Figure3Test, IterationCountMatchesPaperWithinTolerance) {
  const Figure3Case c = GetParam();
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model,
                                                  paper_options(c.alpha));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  // Paper: 4 / 10 / 20 / 51 iterations. Allow ±2 for the ε bookkeeping
  // difference between "iterations plotted" and "reallocation steps".
  EXPECT_NEAR(static_cast<double>(result.iterations),
              static_cast<double>(c.paper_iterations), 2.0)
      << "alpha=" << c.alpha;
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(PaperAlphas, Figure3Test,
                         ::testing::Values(Figure3Case{0.67, 4},
                                           Figure3Case{0.30, 10},
                                           Figure3Case{0.19, 20},
                                           Figure3Case{0.08, 51}),
                         [](const auto& info) {
                           return "alpha_" +
                                  std::to_string(static_cast<int>(
                                      info.param.alpha * 100));
                         });

// --- Theorem 1: feasibility at every iteration ---------------------------

class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, FeasibilityMaintainedAtEveryIteration) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options = paper_options(0.2);
  options.max_iterations = 400;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed * 7 + 1));
  ASSERT_FALSE(result.trace.empty());
  for (const core::IterationRecord& rec : result.trace) {
    EXPECT_NEAR(fap::util::sum(rec.x), 1.0, 1e-9)
        << "iteration " << rec.iteration;
    for (const double xi : rec.x) {
      EXPECT_GE(xi, 0.0) << "iteration " << rec.iteration;
    }
  }
}

// --- Theorem 2: strict monotonicity -------------------------------------

TEST_P(AllocatorPropertyTest, CostStrictlyDecreasesUntilConvergence) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  // Moderate α keeps the second-order argument valid on these instances.
  core::AllocatorOptions options = paper_options(0.05);
  options.max_iterations = 3000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed * 13 + 5));
  for (std::size_t t = 1; t < result.trace.size(); ++t) {
    EXPECT_LE(result.trace[t].cost, result.trace[t - 1].cost + 1e-12)
        << "iteration " << t << " seed " << seed;
  }
}

TEST(Allocator, Theorem2AlphaBoundGuaranteesMonotonicity) {
  const core::SingleFileModel model = paper_model();
  // Even at 100x the appendix bound (still tiny), every step must improve.
  core::AllocatorOptions options =
      paper_options(100.0 * model.theorem2_alpha_bound(1e-3));
  options.max_iterations = 200;  // far from convergence at this α — fine
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  for (std::size_t t = 1; t < result.trace.size(); ++t) {
    EXPECT_LT(result.trace[t].cost, result.trace[t - 1].cost);
  }
}

// --- Optimality at convergence (Section 5.3 conditions) ------------------

TEST_P(AllocatorPropertyTest, ConvergesToProjectedGradientOptimum) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-6;
  options.max_iterations = 200000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult decentralized =
      allocator.run(fap::testing::random_feasible(model, seed + 11));
  ASSERT_TRUE(decentralized.converged) << "seed " << seed;

  const fap::baselines::ProjectedGradientResult centralized =
      fap::baselines::projected_gradient_solve(
          model, core::uniform_allocation(model));
  EXPECT_NEAR(decentralized.cost, centralized.cost,
              1e-5 * (1.0 + std::fabs(centralized.cost)))
      << "seed " << seed;
}

TEST_P(AllocatorPropertyTest, KktConditionsHoldAtConvergence) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(seed, 4 + seed % 8));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-7;
  options.max_iterations = 500000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, seed + 17));
  ASSERT_TRUE(result.converged);
  // Section 5.3: ∂U/∂x_i = q for x_i > 0 and ∂U/∂x_i <= q for x_i = 0.
  const std::vector<double> du = model.marginal_utilities(result.x);
  double q = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    if (result.x[i] > 1e-6) {
      q += du[i];
      weight += 1.0;
    }
  }
  ASSERT_GT(weight, 0.0);
  q /= weight;
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    if (result.x[i] > 1e-6) {
      EXPECT_NEAR(du[i], q, 1e-4 * (1.0 + std::fabs(q))) << "i=" << i;
    } else {
      EXPECT_LE(du[i], q + 1e-4 * (1.0 + std::fabs(q))) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, AllocatorPropertyTest,
                         ::testing::Range(1, 11));

// --- Initial allocation does not affect the final optimum ---------------

TEST(Allocator, FinalAllocationIndependentOfStartingPoint) {
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(99, 6));
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-7;
  options.max_iterations = 500000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult a =
      allocator.run(fap::testing::random_feasible(model, 1));
  const core::AllocationResult b =
      allocator.run(fap::testing::random_feasible(model, 2));
  const core::AllocationResult c = allocator.run({1, 0, 0, 0, 0, 0});
  ASSERT_TRUE(a.converged && b.converged && c.converged);
  EXPECT_NEAR(a.cost, b.cost, 1e-6);
  EXPECT_NEAR(a.cost, c.cost, 1e-6);
}

// --- Boundary handling ----------------------------------------------------

TEST(Allocator, Figure4StartDoesNotFreezeTheLoadedNode) {
  // Start with the whole file at node 4 and a step large enough that the
  // literal set-A rule would exclude (and freeze) node 4 immediately.
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::AllocationResult result = allocator.run({0.0, 0.0, 0.0, 1.0});
  ASSERT_TRUE(result.converged);
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
}

TEST(Allocator, LargeAlphaStillReachesTheOptimum) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.67));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

TEST(Allocator, NodesAtZeroWithLowMarginalUtilityStayAtZero) {
  // Make node 3 very expensive to reach so its optimal share is zero.
  fap::core::SingleFileProblem problem = core::make_paper_ring_problem();
  fap::net::CostMatrix comm =
      fap::net::all_pairs_shortest_paths(fap::net::make_ring(4, 1.0));
  for (std::size_t j = 0; j < 4; ++j) {
    if (j != 3) {
      comm.set_cost(j, 3, 50.0);
    }
  }
  problem.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(std::move(comm)));
  const core::SingleFileModel model(std::move(problem));
  core::AllocatorOptions options = paper_options(0.1);
  options.epsilon = 1e-6;
  options.max_iterations = 100000;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result =
      allocator.run({0.34, 0.33, 0.33, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[3], 0.0, 1e-9);
  EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-9);
}

// --- Step rules -----------------------------------------------------------

TEST(Allocator, DynamicStepRuleConvergesFastOnThePaperRing) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options = paper_options(0.1);
  options.step_rule = core::StepRule::kDynamic;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
  // Should be competitive with the best fixed α the paper found (4 iters).
  EXPECT_LE(result.iterations, 25u);
}

TEST(Allocator, DynamicAlphaBoundIsPositiveAwayFromOptimum) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options = paper_options(0.1);
  options.step_rule = core::StepRule::kDynamic;
  const core::ResourceDirectedAllocator allocator(model, options);
  // Away from the optimum the Eq. 5 bound over the full active set, and so
  // the step the dynamic rule takes, is positive.
  const auto outcome = allocator.step({0.8, 0.1, 0.1, 0.0});
  EXPECT_FALSE(outcome.terminal);
  EXPECT_EQ(outcome.active_set_size, 4u);
  EXPECT_GT(outcome.alpha_used, 0.0);
}

// --- Mechanics ------------------------------------------------------------

TEST(Allocator, TerminatesImmediatelyAtTheOptimum) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::AllocationResult result =
      allocator.run({0.25, 0.25, 0.25, 0.25});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Allocator, StepOutcomeReportsSpreadAndActiveSet) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const auto outcome = allocator.step({0.8, 0.1, 0.1, 0.0});
  EXPECT_FALSE(outcome.terminal);
  EXPECT_GT(outcome.marginal_spread, 0.0);
  EXPECT_EQ(outcome.active_set_size, 4u);
  EXPECT_GT(outcome.alpha_used, 0.0);
  EXPECT_NEAR(fap::util::sum(outcome.x), 1.0, 1e-12);
}

TEST(Allocator, RespectsIterationCap) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options = paper_options(1e-4);  // extremely slow
  options.max_iterations = 5;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 5u);
  // Even when stopped early the intermediate allocation is feasible and
  // strictly better than the start — the property Section 5.3 highlights.
  EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-9);
  EXPECT_LT(result.cost, model.cost({0.8, 0.1, 0.1, 0.0}));
}

TEST(Allocator, TraceDisabledByDefault) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions options;
  options.alpha = 0.3;
  const core::ResourceDirectedAllocator allocator(model, options);
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  EXPECT_TRUE(result.trace.empty());
  EXPECT_TRUE(result.converged);
}

TEST(Allocator, RejectsInvalidOptionsAndInputs) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  bad = core::AllocatorOptions{};
  bad.epsilon = 0.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  const core::ResourceDirectedAllocator allocator(model,
                                                  core::AllocatorOptions{});
  EXPECT_THROW(allocator.run({0.5, 0.5, 0.5, 0.5}), PreconditionError);
  EXPECT_THROW(allocator.run({1.0, 0.0, 0.0}), PreconditionError);
}

// The constructor checks the options and run() checks the start; the
// model's own fields were checked by its constructor.
TEST(Allocator, RejectsUnsupportedOptionsAndInfeasibleStarts) {
  const core::SingleFileModel model = paper_model();
  core::AllocatorOptions bad;
  bad.alpha = -1.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  bad = core::AllocatorOptions{};
  bad.epsilon = 0.0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);
  bad = core::AllocatorOptions{};
  bad.max_iterations = 0;
  EXPECT_THROW(core::ResourceDirectedAllocator(model, bad),
               PreconditionError);

  const core::ResourceDirectedAllocator allocator(model,
                                                  core::AllocatorOptions{});
  EXPECT_THROW(allocator.run(std::vector<double>(4, 0.5)),
               PreconditionError);  // mass 2 != 1: infeasible
  EXPECT_THROW(allocator.run(std::vector<double>(3, 1.0 / 3)),
               PreconditionError);  // wrong dimension
  EXPECT_THROW(allocator.run({1.25, -0.25, 0.0, 0.0}),
               PreconditionError);  // negative entry

  // A start over a storage capacity is infeasible even when it sums to 1.
  core::SingleFileProblem capped = model.problem();
  capped.storage_capacity.assign(4, 0.5);
  const core::SingleFileModel capped_model(std::move(capped));
  const core::ResourceDirectedAllocator capped_allocator(
      capped_model, core::AllocatorOptions{});
  EXPECT_THROW(capped_allocator.run({0.9, 0.1, 0.0, 0.0}), PreconditionError);
  EXPECT_NO_THROW(capped_allocator.run({0.5, 0.5, 0.0, 0.0}));
}

TEST(Allocator, ActiveSetExcludesOnlyBoundaryNodes) {
  const core::SingleFileModel model = paper_model();
  const core::ResourceDirectedAllocator allocator(model, paper_options(0.3));
  const core::ConstraintGroup group = model.constraint_groups().front();
  // At (0,0,0,1) the three empty nodes all have above-average marginal
  // utility; all four nodes stay active (node 3 is interior).
  const std::vector<double> x{0.0, 0.0, 0.0, 1.0};
  const std::vector<double> du = model.marginal_utilities(x);
  const auto active = allocator.active_set(group, x, du, 0.3);
  EXPECT_EQ(active.size(), 4u);
  // Flip the sign structure: an empty node with *below*-average marginal
  // utility must be excluded.
  const std::vector<double> du_low{-1.0, -1.0, -1.0, -10.0};
  const std::vector<double> x_zero{0.4, 0.3, 0.3, 0.0};
  const auto active2 = allocator.active_set(group, x_zero, du_low, 0.3);
  EXPECT_EQ(active2.size(), 3u);
  EXPECT_TRUE(std::find(active2.begin(), active2.end(), 3u) == active2.end());
}

// --- Fast active set ≡ reference transcription ---------------------------
//
// The O(n) incremental active-set procedure claims *decision*
// equivalence with the literal Section 5.2 transcription
// (active_set_reference), not merely agreement in the limit. These
// parameterized tests pin that claim across randomized instances: the two
// procedures must return the same index set at the starting allocation
// and at every iterate of a full run. The rest of a step is shared code,
// so equal sets at every iterate imply the reference trajectory.

struct EquivalenceInstance {
  core::SingleFileModel model;
  std::vector<double> start;
  double alpha = 0.3;
};

// Seeds cycle through three shapes: unconstrained with a random interior
// start, capacity-constrained with a water-filled start (some variables
// exactly at their cap — the ceiling-pinned boundary case), and
// boundary-pinned starts with all mass on two nodes (the rest exactly 0).
EquivalenceInstance equivalence_instance(std::uint64_t seed) {
  const std::size_t nodes = 3 + seed % 14;
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(seed, nodes);
  fap::util::Rng rng(seed * 7919 + 1);
  const std::uint64_t variant = seed % 3;
  if (variant == 1) {
    problem.storage_capacity.resize(nodes);
    double total = 0.0;
    for (double& cap : problem.storage_capacity) {
      cap = rng.uniform(0.15, 0.9);
      total += cap;
    }
    if (total < 1.1) {
      for (double& cap : problem.storage_capacity) {
        cap *= 1.1 / total;
      }
    }
  }
  core::SingleFileModel model(std::move(problem));
  std::vector<double> start;
  if (variant == 1) {
    start = core::uniform_allocation(model);
  } else if (variant == 2) {
    start.assign(nodes, 0.0);
    const std::size_t a = seed % nodes;
    const std::size_t b = (seed / 3 + 1) % nodes;
    if (a == b) {
      start[a] = 1.0;
    } else {
      start[a] = 0.8;
      start[b] = 0.2;
    }
  } else {
    start = fap::testing::random_feasible(model, seed + 1000);
  }
  return {std::move(model), std::move(start), rng.uniform(0.05, 1.0)};
}

// The α a step at `x` determines `group`'s set A with: the fixed α, or
// for the dynamic rule kDynamicSafety times the Eq. 5 bound over the
// whole group, in the allocator's own order of operations (its fallback
// on a locally linear objective included).
double set_a_alpha(const core::CostModel& model,
                   const core::ConstraintGroup& group,
                   const std::vector<double>& x,
                   const core::AllocatorOptions& options) {
  if (options.step_rule != core::StepRule::kDynamic) {
    return options.alpha;
  }
  const std::vector<double> du = model.marginal_utilities(x);
  const std::vector<double> d2c = model.second_derivative(x);
  double sum = 0.0;
  for (const std::size_t i : group.indices) {
    sum += du[i];
  }
  const double avg = sum / static_cast<double>(group.indices.size());
  double numerator = 0.0;
  double denominator = 0.0;
  for (const std::size_t i : group.indices) {
    const double dev = du[i] - avg;
    numerator += dev * dev;
    denominator += std::fabs(d2c[i]) * dev * dev;
  }
  const double bound =
      denominator <= 0.0 ? options.alpha : 2.0 * numerator / denominator;
  return core::kDynamicSafety * bound;
}

// Fast and reference set A agree for every group at `x`; returns the
// reference sets' total size.
std::size_t expect_sets_match_at(
    const core::ResourceDirectedAllocator& allocator,
    const core::CostModel& model, const std::vector<double>& x,
    const std::string& where) {
  const std::vector<double> du = model.marginal_utilities(x);
  std::size_t total = 0;
  for (const core::ConstraintGroup& group : model.constraint_groups()) {
    const double alpha = set_a_alpha(model, group, x, allocator.options());
    const std::vector<std::size_t> reference =
        allocator.active_set_reference(group, x, du, alpha);
    EXPECT_EQ(allocator.active_set(group, x, du, alpha), reference) << where;
    total += reference.size();
  }
  return total;
}

class ActiveSetEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ActiveSetEquivalenceTest, FastMatchesReferenceAtStart) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const EquivalenceInstance inst = equivalence_instance(seed);
  core::AllocatorOptions options;
  options.alpha = inst.alpha;
  const core::ResourceDirectedAllocator allocator(inst.model, options);
  const std::vector<double> du = inst.model.marginal_utilities(inst.start);
  for (const core::ConstraintGroup& group : inst.model.constraint_groups()) {
    EXPECT_EQ(allocator.active_set(group, inst.start, du, inst.alpha),
              allocator.active_set_reference(group, inst.start, du,
                                             inst.alpha))
        << "seed=" << seed;
  }
}

TEST_P(ActiveSetEquivalenceTest, RunTrajectoriesAreBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const EquivalenceInstance inst = equivalence_instance(seed);
  core::AllocatorOptions options;
  options.alpha = inst.alpha;
  options.epsilon = 1e-4;
  options.max_iterations = 300;
  options.record_trace = true;
  // Exercise the dynamic step rule on a third of the seeds: it feeds the
  // active set back into the α computation, so a divergence would compound.
  if (seed % 3 == 0) {
    options.step_rule = core::StepRule::kDynamic;
  }
  const core::ResourceDirectedAllocator allocator(inst.model, options);
  const core::AllocationResult result = allocator.run(inst.start);
  ASSERT_EQ(result.trace.size(), result.iterations + 1) << "seed=" << seed;
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    const std::string where =
        "seed=" + std::to_string(seed) + " it=" + std::to_string(t);
    const std::size_t reference_size =
        expect_sets_match_at(allocator, inst.model, result.trace[t].x, where);
    // Every record but a capped run's final one comes from a step, whose
    // set A (under the α computed above) is the one checked here.
    if (result.converged || t < result.iterations) {
      EXPECT_EQ(result.trace[t].active_set_size, reference_size) << where;
    }
  }
}

// 200 randomized instances (the two TEST_Ps above share them), covering
// unconstrained, capacity-constrained, and boundary-pinned shapes.
INSTANTIATE_TEST_SUITE_P(RandomInstances, ActiveSetEquivalenceTest,
                         ::testing::Range(1, 201));

TEST(Allocator, StepMatchesBetweenFastAndReferencePaths) {
  // One explicit capacity-pinned corner: a variable exactly at its cap
  // with above-average marginal utility must be excluded identically by
  // both procedures, under either step rule.
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(42, 6);
  problem.storage_capacity = {0.3, 0.3, 0.3, 0.3, 0.3, 0.3};
  const core::SingleFileModel model(std::move(problem));
  const std::vector<double> x{0.3, 0.3, 0.3, 0.1, 0.0, 0.0};
  for (const core::StepRule rule :
       {core::StepRule::kFixed, core::StepRule::kDynamic}) {
    core::AllocatorOptions options;
    options.alpha = 0.5;
    options.step_rule = rule;
    const core::ResourceDirectedAllocator allocator(model, options);
    expect_sets_match_at(allocator, model, x,
                         rule == core::StepRule::kFixed ? "fixed" : "dynamic");
  }
}

// --- Fast ≡ reference where the fast procedure does its work --------------
//
// The random instances above re-admit almost nobody (an instrumented
// build counted 5 admissions in 24,677 active-set calls across the tests
// above), and none of them is a catalog lane. The families below pin the
// equivalence where the fast procedure's outsider bookkeeping runs:
// catalog lanes (a point mass with most nodes pinned at the floor, the
// common case of every catalog solve), re-admissions of nodes step (i)
// pinned, and exact ties between candidate gaps.

// Step (i) of Section 5.2, computed here independently of both
// procedures: which nodes sit on a bound that the full-group average
// would push them through.
std::vector<bool> pinned_at_step_one(const std::vector<double>& x,
                                     const std::vector<double>& du,
                                     const std::vector<double>& caps,
                                     double alpha) {
  constexpr double tol = core::detail::kBoundaryTol;
  double sum = 0.0;
  for (const double value : du) {
    sum += value;
  }
  const double avg = sum / static_cast<double>(du.size());
  std::vector<bool> pinned(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = alpha * (du[i] - avg);
    const double cap =
        caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
    pinned[i] = (x[i] <= tol && d < 0.0 && x[i] + d <= 0.0) ||
                (x[i] >= cap - tol && d > 0.0 && x[i] + d >= cap);
  }
  return pinned;
}

// Catalog inner solves exactly as the catalog's sweep task builds them
// (priced access costs, point-mass start), at zero prices and at the
// final prices of a contended solve; the two procedures must agree at the
// start and at every step of each object's traced run.
class ActiveSetCatalogLaneTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ActiveSetCatalogLaneTest, FastMatchesReferenceAlongTracedLanes) {
  const std::size_t nodes = GetParam();
  fap::catalog::SyntheticCatalogOptions synth;
  synth.objects = 100;
  synth.nodes = nodes;
  synth.headroom = 0.05;
  synth.zipf_s = 0.9;
  synth.locality = 0.5;
  const fap::catalog::CatalogSpec spec =
      fap::catalog::make_synthetic_catalog(synth, nodes);
  const fap::catalog::CatalogSolver solver(spec, {});
  const std::vector<double> zero_prices(nodes, 0.0);
  const std::vector<double> contended_prices = solver.solve().prices;
  ASSERT_GT(*std::max_element(contended_prices.begin(),
                              contended_prices.end()),
            0.0);

  core::AllocatorOptions options = solver.options().inner;
  options.record_trace = true;
  options.max_iterations = 150;
  std::size_t calls = 0;
  std::size_t boundary_calls = 0;
  for (const std::vector<double>* prices :
       {&zero_prices, &contended_prices}) {
    for (std::size_t o = 0; o < spec.object_count(); o += 12) {
      const core::SingleFileModel model =
          fap::testing::catalog_lane_model(spec, solver, o, *prices);
      const core::ResourceDirectedAllocator allocator(model, options);
      const core::ConstraintGroup group = model.constraint_groups().front();
      const core::AllocationResult run =
          allocator.run(solver.object_start(o, *prices));
      for (const core::IterationRecord& record : run.trace) {
        const std::vector<double> du = model.marginal_utilities(record.x);
        ASSERT_EQ(allocator.active_set(group, record.x, du, options.alpha),
                  allocator.active_set_reference(group, record.x, du,
                                                 options.alpha))
            << "object " << o << " iteration " << record.iteration;
        const std::vector<bool> pinned =
            pinned_at_step_one(record.x, du, {}, options.alpha);
        ++calls;
        if (std::find(pinned.begin(), pinned.end(), true) != pinned.end()) {
          ++boundary_calls;
        }
      }
    }
  }
  // The lanes exercise the boundary path, not the all-active shortcut.
  EXPECT_GT(2 * boundary_calls, calls) << boundary_calls << " of " << calls;
}

INSTANTIATE_TEST_SUITE_P(Nodes, ActiveSetCatalogLaneTest,
                         ::testing::Values(10, 32, 64, 100, 128));

// Random boundary-heavy allocations under storage caps: every node sits at
// the floor, at its cap or strictly inside, with random marginal
// utilities and a random step.
struct BoundaryInstance {
  core::SingleFileModel model;
  std::vector<double> x;
  std::vector<double> du;
  double alpha = 0.0;
};

BoundaryInstance boundary_instance(std::uint64_t seed) {
  const std::size_t nodes = 3 + seed % 14;
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(seed, nodes);
  fap::util::Rng rng(seed * 104729 + 3);
  problem.storage_capacity.resize(nodes);
  for (double& cap : problem.storage_capacity) {
    cap = rng.uniform(0.4, 0.9);
  }
  BoundaryInstance inst{core::SingleFileModel(std::move(problem)),
                        std::vector<double>(nodes),
                        std::vector<double>(nodes), 0.0};
  const std::vector<double>& caps = inst.model.upper_bounds();
  for (std::size_t i = 0; i < nodes; ++i) {
    const double where = rng.uniform();
    inst.x[i] = where < 0.4 ? 0.0
                : where < 0.8 ? caps[i]
                              : rng.uniform(0.1, 0.9) * caps[i];
    inst.du[i] = rng.uniform(-1.0, 1.0);
  }
  inst.alpha = rng.uniform(0.05, 1.0);
  return inst;
}

// Each seed compares the two procedures, and every node step (i) pinned
// that the reference's final set takes back is counted by class — floor
// gainers and cap losers — so the family provably drives both
// re-admission branches (185 and 215 of them over these seeds).
TEST(Allocator, ActiveSetReadmissionsMatchReference) {
  constexpr double tol = core::detail::kBoundaryTol;
  std::size_t floor_readmissions = 0;
  std::size_t cap_readmissions = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const BoundaryInstance inst = boundary_instance(seed);
    const core::ResourceDirectedAllocator allocator(inst.model, {});
    const core::ConstraintGroup group =
        inst.model.constraint_groups().front();
    const std::vector<std::size_t> reference =
        allocator.active_set_reference(group, inst.x, inst.du, inst.alpha);
    ASSERT_EQ(allocator.active_set(group, inst.x, inst.du, inst.alpha),
              reference)
        << "seed=" << seed;
    const std::vector<bool> pinned = pinned_at_step_one(
        inst.x, inst.du, inst.model.upper_bounds(), inst.alpha);
    for (const std::size_t i : reference) {
      if (pinned[i]) {
        ++(inst.x[i] <= tol ? floor_readmissions : cap_readmissions);
      }
    }
  }
  EXPECT_GE(floor_readmissions, 100u);
  EXPECT_GE(cap_readmissions, 100u);
}

// The same family with the step negated. The allocators never pass α <= 0,
// but active_set promises the reference's decisions for any input, and a
// negative step is what mixes the two outsider classes: floor outsiders
// are then pinned above an average and cap outsiders below it, so both
// classes can be eligible at once, and a node the last drop pass removed
// can be the next one admitted. Positive steps never reach the first case,
// and no random positive-step input has reached the second.
TEST(Allocator, ActiveSetMatchesReferenceAtNegativeSteps) {
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const BoundaryInstance inst = boundary_instance(seed);
    const core::ResourceDirectedAllocator allocator(inst.model, {});
    const core::ConstraintGroup group =
        inst.model.constraint_groups().front();
    EXPECT_EQ(allocator.active_set(group, inst.x, inst.du, -inst.alpha),
              allocator.active_set_reference(group, inst.x, inst.du,
                                             -inst.alpha))
        << "seed=" << seed;
  }
}

// An exact cross-class tie: right after step (i), a floor-side outsider
// sits as far above the active average as a cap-side outsider sits below
// it, and the reference admits whichever comes first in group order.
// With α > 0 the two classes are never eligible together (floor outsiders
// were pinned below an average, cap outsiders above it), so a tie needs a
// negative step; white-box callers may pass one. Either admission order
// re-admits both nodes, but the running sums round differently, and here
// that decides the final set: the other order returns {1} in both cases.
TEST(Allocator, ActiveSetCrossClassTieGoesToTheEarlierPosition) {
  struct Case {
    std::vector<double> x;
    std::vector<double> du;
    std::size_t gainer;
    std::size_t loser;
    std::vector<std::size_t> expected;
  };
  const Case cases[] = {
      {{0.5, 0.0, 0.5}, {0.1, 0.5, -0.3}, 1, 2, {0}},  // gainer first
      {{0.5, 0.0, 0.0}, {-0.3, 0.5, 0.1}, 1, 0, {2}},  // loser first
  };
  constexpr double alpha = -1.0;
  for (const Case& c : cases) {
    core::SingleFileProblem problem =
        fap::testing::random_single_file_problem(5, 3);
    problem.storage_capacity = {0.5, 0.5, 0.5};
    const core::SingleFileModel model(std::move(problem));
    const core::ResourceDirectedAllocator allocator(model, {});
    const core::ConstraintGroup group = model.constraint_groups().front();

    // Step (i) keeps the one node that is neither the gainer nor the
    // loser, and the two gaps to its marginal utility are equal.
    const std::vector<bool> pinned =
        pinned_at_step_one(c.x, c.du, model.upper_bounds(), alpha);
    ASSERT_TRUE(pinned[c.gainer]);
    ASSERT_TRUE(pinned[c.loser]);
    const std::size_t kept = 3 - c.gainer - c.loser;
    ASSERT_FALSE(pinned[kept]);
    const double avg = c.du[kept];
    ASSERT_GT(c.du[c.gainer] - avg, 0.0);
    ASSERT_EQ(c.du[c.gainer] - avg, std::fabs(c.du[c.loser] - avg));

    const std::vector<std::size_t> reference =
        allocator.active_set_reference(group, c.x, c.du, alpha);
    EXPECT_EQ(reference, c.expected);
    EXPECT_EQ(allocator.active_set(group, c.x, c.du, alpha), reference);
  }
}

// Equal gaps from distinct marginal utilities: 0.3 and the next double up
// both sit 2.7 below the average of 3 once the subtraction rounds. Step
// (i) pins every node here, so the degenerate rule keeps node 3 (∂U = 3);
// the three cap-side nodes are then eligible losers, all three on the
// same gap. The reference admits node 0, the first in group order, and
// the admission order decides the final set: taking node 1 first, the
// first holding the smallest ∂U, rounds the later average down and ends
// at {1, 2}.
TEST(Allocator, ActiveSetEqualGapsGoToTheEarlierPosition) {
  core::SingleFileProblem problem =
      fap::testing::random_single_file_problem(5, 5);
  problem.storage_capacity.assign(5, 0.5);
  const core::SingleFileModel model(std::move(problem));
  const core::ResourceDirectedAllocator allocator(model, {});
  const core::ConstraintGroup group = model.constraint_groups().front();
  const std::vector<double> x{0.5, 0.5, 0.5, 0.5, 0.0};
  const std::vector<double> du{0.30000000000000004, 0.3, 0.3, 3.0, -5.0};
  constexpr double alpha = 0.5;
  ASSERT_NE(du[0], du[1]);
  ASSERT_EQ(du[0] - du[3], du[1] - du[3]);
  const std::vector<bool> pinned =
      pinned_at_step_one(x, du, model.upper_bounds(), alpha);
  ASSERT_EQ(std::count(pinned.begin(), pinned.end(), true), 5);

  const std::vector<std::size_t> reference =
      allocator.active_set_reference(group, x, du, alpha);
  EXPECT_EQ(reference, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(allocator.active_set(group, x, du, alpha), reference);
}

}  // namespace
