// SimplexAllocator's contract: on an uncapped single-file problem it
// returns what ResourceDirectedAllocator::run returns on the matching
// SingleFileModel, bit for bit — the allocation, the iteration count and
// the convergence flag — and leaves ∂U at the final allocation in its row,
// although it re-evaluates ∂U only on set A after each step. The
// randomized pin mixes vertex and non-vertex starts, five delay laws and
// both step rules, and checks that the mix holds runs whose start node
// drains to exactly 0, runs whose support changes after the first step,
// and runs stopped by the iteration cap.
#include "core/simplex_allocator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "queueing/delay.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::core::AllocationResult;
using fap::core::AllocatorOptions;
using fap::core::ResourceDirectedAllocator;
using fap::core::SimplexAllocator;
using fap::core::SimplexProblem;
using fap::core::SingleFileModel;
using fap::core::SingleFileProblem;
using fap::core::StepRule;
using fap::queueing::DelayModel;
using fap::util::PreconditionError;
using fap::util::Rng;

::testing::AssertionResult BitsEqual(double expected, double actual) {
  if (std::bit_cast<std::uint64_t>(expected) ==
      std::bit_cast<std::uint64_t>(actual)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "expected=" << expected << " actual=" << actual << " differ by "
         << (actual - expected);
}

// The delay laws under test: three single-server laws with a knee that
// the heavier loads cross, the pure M/M/1 law, and M/M/2.
constexpr std::size_t kFamilies = 5;

DelayModel delay_family(std::size_t family, Rng& rng) {
  const double knee = rng.uniform(0.2, 0.6);
  switch (family) {
    case 0:
      return DelayModel::mm1(knee);
    case 1:
      return DelayModel::md1(knee);
    case 2:
      return DelayModel::mg1(2.0, knee);
    case 3:
      return DelayModel::mm1();
    default:
      return DelayModel::mmc(2);
  }
}

const char* family_name(std::size_t family) {
  static const char* const kNames[kFamilies] = {
      "M/M/1 knee", "M/D/1 knee", "M/G/1 SCV 2 knee", "pure M/M/1", "M/M/2"};
  return kNames[family];
}

struct Instance {
  SingleFileModel model;
  AllocatorOptions options;
  std::vector<double> start;
  bool vertex = false;
  std::size_t start_node = 0;  // the vertex's node
};

// An uncapped single-file problem on 2–16 nodes: λ concentrated at one
// origin (so the rate is exact), per-node μ above λ, and access costs
// that sometimes tie.
Instance make_instance(std::size_t family, StepRule rule, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 2 + rng.uniform_index(15);
  const double rate = rng.uniform(0.2, 2.0);
  std::vector<double> lambda(n, 0.0);
  lambda[rng.uniform_index(n)] = rate;
  std::vector<double> mu(n);
  for (double& m : mu) {
    m = rate * rng.uniform(1.3, 3.0);
  }
  const bool ties = rng.uniform() < 0.3;
  std::vector<double> access(n);
  for (double& c : access) {
    c = ties ? 0.25 * static_cast<double>(rng.uniform_index(8))
             : rng.uniform(0.0, 2.0);
  }
  const DelayModel delay = delay_family(family, rng);
  SingleFileProblem problem{nullptr,
                            std::move(lambda),
                            std::move(mu),
                            rng.uniform(0.3, 2.0),
                            delay,
                            {},
                            {},
                            std::move(access)};

  AllocatorOptions options;
  options.alpha = rng.uniform(0.05, 0.6);
  options.step_rule = rule;
  options.epsilon = rng.uniform() < 0.5 ? 1e-3 : 1e-5;
  const std::size_t iteration_caps[] = {20, 200, 20000};
  options.max_iterations = iteration_caps[rng.uniform_index(3)];

  Instance inst{SingleFileModel(std::move(problem)), options, {}, false, 0};
  inst.start.assign(n, 0.0);
  if (rng.uniform() < 0.5) {
    inst.vertex = true;
    inst.start_node = rng.uniform_index(n);
    inst.start[inst.start_node] = 1.0;
  } else {
    // Interior, or partly on the floor (node 0 always holds some).
    double total = 0.0;
    const bool floor = rng.uniform() < 0.5;
    for (std::size_t i = 0; i < n; ++i) {
      inst.start[i] =
          i > 0 && floor && rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.05, 1.0);
      total += inst.start[i];
    }
    for (double& x : inst.start) {
      x /= total;
    }
  }
  return inst;
}

SimplexProblem rows_of(const SingleFileModel& model) {
  return SimplexProblem{model.dimension(), model.total_rate(),
                        model.problem().k, model.access_costs().data(),
                        model.problem().mu.data()};
}

std::vector<bool> support(const std::vector<double>& x) {
  std::vector<bool> held(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    held[i] = x[i] != 0.0;
  }
  return held;
}

// The headline pin. One workspace serves every run, whatever its node
// count, delay law or step rule.
TEST(SimplexAllocator, MatchesSerialRunBitwise) {
  constexpr std::uint64_t kSeedsPerCase = 40;
  SimplexAllocator::Workspace workspace;
  std::size_t vertex_runs = 0;
  std::size_t drained_to_zero = 0;
  std::size_t later_support_change = 0;
  std::size_t capped = 0;
  std::size_t converged = 0;
  for (std::size_t family = 0; family < kFamilies; ++family) {
    for (const StepRule rule : {StepRule::kFixed, StepRule::kDynamic}) {
      for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
        SCOPED_TRACE(std::string(family_name(family)) +
                     (rule == StepRule::kFixed ? ", fixed" : ", dynamic") +
                     ", seed " + std::to_string(seed));
        const Instance inst =
            make_instance(family, rule, 1000 * family + seed);
        AllocatorOptions traced = inst.options;
        traced.record_trace = true;
        const AllocationResult expected =
            ResourceDirectedAllocator(inst.model, traced).run(inst.start);

        const SimplexAllocator allocator(inst.model.problem().delay,
                                         inst.options);
        const SimplexProblem problem = rows_of(inst.model);
        std::vector<double> x = inst.start;
        std::vector<double> du(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          du[i] = allocator.marginal_utility(problem, i, x[i]);
        }
        const SimplexAllocator::Result actual =
            allocator.run(problem, x, du, workspace);

        EXPECT_EQ(actual.converged, expected.converged);
        EXPECT_EQ(actual.iterations, expected.iterations);
        ASSERT_EQ(x.size(), expected.x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
        }
        const std::vector<double> final_du =
            inst.model.marginal_utilities(expected.x);
        for (std::size_t i = 0; i < du.size(); ++i) {
          EXPECT_TRUE(BitsEqual(final_du[i], du[i])) << "∂U of node " << i;
        }

        // Classify the serial trajectory.
        vertex_runs += inst.vertex ? 1 : 0;
        capped += expected.converged ? 0 : 1;
        converged += expected.converged ? 1 : 0;
        bool drained = false;
        bool changed_later = false;
        for (std::size_t t = 0; t < expected.trace.size(); ++t) {
          const std::vector<double>& xt = expected.trace[t].x;
          drained = drained || (inst.vertex && xt[inst.start_node] == 0.0);
          if (t >= 1 && t + 1 < expected.trace.size() &&
              support(xt) != support(expected.trace[t + 1].x)) {
            changed_later = true;
          }
        }
        drained_to_zero += drained ? 1 : 0;
        later_support_change += changed_later ? 1 : 0;
      }
    }
  }
  // The mix this test is about, not an accident of the seeds.
  const std::size_t runs = kFamilies * 2 * kSeedsPerCase;
  EXPECT_GT(vertex_runs, runs / 4);
  EXPECT_LT(vertex_runs, 3 * runs / 4);
  EXPECT_GT(drained_to_zero, 0u);
  EXPECT_GT(later_support_change, 0u);
  EXPECT_GT(capped, 0u);
  EXPECT_GT(converged, 0u);
}

// A start that is already optimal stops before stepping, as the serial
// run does, and hands back the start and its ∂U row untouched.
TEST(SimplexAllocator, TerminalStartTakesNoStep) {
  SingleFileModel model(fap::core::make_paper_ring_problem());
  AllocatorOptions options;
  options.epsilon = 1e-6;
  const std::vector<double> start(4, 0.25);  // symmetric == optimal
  const AllocationResult expected =
      ResourceDirectedAllocator(model, options).run(start);
  ASSERT_TRUE(expected.converged);
  ASSERT_EQ(expected.iterations, 0u);

  const SimplexAllocator allocator(model.problem().delay, options);
  const SimplexProblem problem = rows_of(model);
  std::vector<double> x = start;
  std::vector<double> du(4);
  for (std::size_t i = 0; i < 4; ++i) {
    du[i] = allocator.marginal_utility(problem, i, x[i]);
  }
  const std::vector<double> du_start = du;
  SimplexAllocator::Workspace workspace;
  const SimplexAllocator::Result result =
      allocator.run(problem, x, du, workspace);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(x, start);
  EXPECT_EQ(du, du_start);
}

// The options the ResourceDirectedAllocator constructor rejects, plus
// trace recording, fail at construction; the problem checks
// SingleFileModel's constructor and check_feasible make fail in run(),
// before any step.
TEST(SimplexAllocator, RejectsInvalidProblemsAndOptions) {
  const DelayModel mm1 = DelayModel::mm1();
  AllocatorOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SimplexAllocator(mm1, bad), PreconditionError);
  bad = AllocatorOptions{};
  bad.alpha = -0.3;
  EXPECT_THROW(SimplexAllocator(mm1, bad), PreconditionError);
  bad = AllocatorOptions{};
  bad.epsilon = 0.0;
  EXPECT_THROW(SimplexAllocator(mm1, bad), PreconditionError);
  bad = AllocatorOptions{};
  bad.max_iterations = 0;
  EXPECT_THROW(SimplexAllocator(mm1, bad), PreconditionError);
  bad = AllocatorOptions{};
  bad.record_trace = true;
  EXPECT_THROW(SimplexAllocator(mm1, bad), PreconditionError);

  const SimplexAllocator allocator(mm1, AllocatorOptions{});
  const std::vector<double> access = {1.0, 2.0, 3.0};
  const std::vector<double> mu = {2.0, 2.0, 2.0};
  const SimplexProblem good{3, 1.0, 1.0, access.data(), mu.data()};
  SimplexAllocator::Workspace workspace;
  const auto runs = [&](const SimplexProblem& problem,
                        std::vector<double> x) {
    std::vector<double> du(x.size(), 0.0);
    allocator.run(problem, x, du, workspace);
  };
  const std::vector<double> start = {1.0, 0.0, 0.0};
  EXPECT_NO_THROW(runs(good, start));

  SimplexProblem problem = good;
  problem.n = 0;
  EXPECT_THROW(runs(problem, {}), PreconditionError);
  problem = good;
  problem.access_cost = nullptr;
  EXPECT_THROW(runs(problem, start), PreconditionError);
  EXPECT_THROW(runs(good, {0.5, 0.5}), PreconditionError);  // wrong size
  problem = good;
  problem.rate = 0.0;
  EXPECT_THROW(runs(problem, start), PreconditionError);
  problem = good;
  problem.rate = 2.5;  // >= μ under the pure M/M/1 law: unstable
  EXPECT_THROW(runs(problem, start), PreconditionError);
  problem = good;
  problem.k = -1.0;
  EXPECT_THROW(runs(problem, start), PreconditionError);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  problem = good;
  problem.k = kInf;
  EXPECT_THROW(runs(problem, start), PreconditionError);
  for (const double cost : {std::numeric_limits<double>::quiet_NaN(), kInf}) {
    const std::vector<double> non_finite = {1.0, cost, 3.0};
    problem = good;
    problem.access_cost = non_finite.data();
    EXPECT_THROW(runs(problem, start), PreconditionError);
  }
  const std::vector<double> stalled = {2.0, 0.0, 2.0};
  problem = good;
  problem.mu = stalled.data();
  EXPECT_THROW(runs(problem, start), PreconditionError);
  // Under a linearized law no stability bound applies, but an infinite
  // rate still fails.
  const SimplexAllocator linearized(DelayModel::mm1(0.9), AllocatorOptions{});
  problem = good;
  problem.rate = 2.5;
  std::vector<double> x = start;
  std::vector<double> du(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    du[i] = linearized.marginal_utility(problem, i, x[i]);
  }
  EXPECT_NO_THROW(linearized.run(problem, x, du, workspace));
  problem.rate = kInf;
  x = start;
  EXPECT_THROW(linearized.run(problem, x, du, workspace), PreconditionError);

  EXPECT_THROW(runs(good, {0.8, 0.8, 0.0}), PreconditionError);  // Σ != 1
  EXPECT_THROW(runs(good, {1.25, -0.25, 0.0}), PreconditionError);
}

}  // namespace
