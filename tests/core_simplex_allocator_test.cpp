// SimplexAllocator's contract: on an uncapped single-file problem it
// returns what ResourceDirectedAllocator::run returns on the matching
// SingleFileModel, bit for bit — the allocation, the iteration count and
// the convergence flag — and leaves ∂U at the final allocation in its row,
// although it re-evaluates ∂U only on set A after each step. The
// randomized pin mixes vertex and non-vertex starts, five delay laws and
// both step rules, and checks that the mix holds runs whose start node
// drains to exactly 0, runs whose support changes after the first step,
// and runs stopped by the iteration cap.
//
// The suite also pins the vertex certificate the catalog's pricing pass
// decides before it runs this allocator (detail::vertex_start_terminates
// on a ∂U row from detail::marginal_delay): wherever it holds, the serial
// run stops at the point mass after 0 iterations.
#include "core/simplex_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/active_set.hpp"
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

// --- The vertex certificate ---------------------------------------------

std::vector<double> vertex(std::size_t n, std::size_t s) {
  std::vector<double> x(n, 0.0);
  x[s] = 1.0;
  return x;
}

// ∂U at `start` as the catalog's pricing pass evaluates it for the
// certificate.
std::vector<double> certificate_marginal_utilities(
    const SingleFileModel& model, const std::vector<double>& start) {
  const SingleFileProblem& problem = model.problem();
  std::vector<double> du(start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    du[i] = -(model.access_costs()[i] +
              problem.k * fap::core::detail::marginal_delay(
                              model.total_rate() * start[i], problem.mu[i],
                              problem.delay.scv(), problem.delay.rho_max()));
  }
  return du;
}

// A hand-built uncapped instance: λ = 1 split evenly, k = 1, access
// costs given, μ = 2 at every node. Under M/M/1 with μ = 2 its marginal
// utilities at the vertex e_s are ∂U_s = -(C_s + 2) and
// ∂U_i = -(C_i + 0.5) for i != s.
SingleFileModel hand_built_model(std::vector<double> access) {
  const std::size_t n = access.size();
  SingleFileProblem problem{nullptr,
                            std::vector<double>(n, 1.0 / static_cast<double>(n)),
                            std::vector<double>(n, 2.0),
                            1.0,
                            DelayModel::mm1(),
                            {},
                            {},
                            std::move(access)};
  return SingleFileModel(std::move(problem));
}

// Every vertex of the suite's single-server instances, run at a fixed
// step. The certificate's ∂U row is the serial gradient's, bit for bit,
// and where the certificate holds, the serial run indeed stops at the
// start after 0 iterations; it holds for some of these starts and not
// for others.
TEST(SimplexAllocator, VertexStartsMatchSerialBitwise) {
  std::size_t starts = 0;
  std::size_t certified = 0;
  for (std::size_t family = 0; family + 1 < kFamilies; ++family) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const Instance inst =
          make_instance(family, StepRule::kFixed, 1000 * family + seed);
      const std::size_t n = inst.model.dimension();
      for (std::size_t s = 0; s < n; ++s) {
        SCOPED_TRACE(std::string(family_name(family)) + ", seed " +
                     std::to_string(seed) + ", vertex " + std::to_string(s));
        const std::vector<double> start = vertex(n, s);
        const std::vector<double> du =
            certificate_marginal_utilities(inst.model, start);
        const std::vector<double> serial_du =
            inst.model.marginal_utilities(start);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(BitsEqual(serial_du[i], du[i])) << "∂U of node " << i;
        }
        ++starts;
        if (!fap::core::detail::vertex_start_terminates(
                du.data(), n, s, inst.options.alpha, inst.options.epsilon)) {
          continue;
        }
        ++certified;
        const AllocationResult serial =
            ResourceDirectedAllocator(inst.model, inst.options).run(start);
        EXPECT_TRUE(serial.converged);
        EXPECT_EQ(serial.iterations, 0u);
        EXPECT_EQ(serial.x, start);
      }
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_LT(certified, starts);
}

// Hand-built margins ∂U_s - max_{i != s} ∂U_i around the certificate's
// edge, asserted on the decision itself: a tie and +1 ulp are certified,
// -1 ulp is not, and ±ε/2 fall on either side. The serial allocator
// stops at once where the certificate holds.
TEST(SimplexAllocator, VertexCertificateMarginsAndSignedZeros) {
  AllocatorOptions options;
  options.epsilon = 1e-4;
  struct Case {
    const char* name;
    double rival_cost;  // C_1; node 0 holds the mass with C_0 = 1
    bool certified;
  };
  const Case cases[] = {
      {"tie", 2.5, true},
      {"+1 ulp", std::nextafter(2.5, 3.0), true},
      {"-1 ulp", std::nextafter(2.5, 2.0), false},
      {"+eps/2", 2.5 + 5e-5, true},
      {"-eps/2", 2.5 - 5e-5, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SingleFileModel model =
        hand_built_model({1.0, c.rival_cost, 10.0, 10.0});
    const std::vector<double> start = vertex(4, 0);
    const std::vector<double> du =
        certificate_marginal_utilities(model, start);
    ASSERT_EQ(du[0], -3.0);
    if (std::string(c.name) == "tie") {
      EXPECT_EQ(du[1], du[0]);
    } else if (std::string(c.name) == "+1 ulp") {
      EXPECT_EQ(du[1], std::nextafter(du[0], -4.0));
    } else if (std::string(c.name) == "-1 ulp") {
      EXPECT_EQ(du[1], std::nextafter(du[0], -2.0));
    }
    EXPECT_EQ(fap::core::detail::vertex_start_terminates(
                  du.data(), du.size(), 0, options.alpha, options.epsilon),
              c.certified);
    const AllocationResult serial =
        ResourceDirectedAllocator(model, options).run(start);
    if (c.certified) {
      EXPECT_TRUE(serial.converged);
      EXPECT_EQ(serial.iterations, 0u);
    }
  }

  // A start whose empty nodes hold -0.0 is a vertex too; the serial run
  // converges at once and keeps those bits.
  const SingleFileModel model = hand_built_model({1.0, 2.5, 10.0, 10.0});
  const AllocationResult signed_run =
      ResourceDirectedAllocator(model, options).run({1.0, -0.0, -0.0, -0.0});
  EXPECT_TRUE(signed_run.converged);
  EXPECT_EQ(signed_run.iterations, 0u);
  ASSERT_EQ(signed_run.x.size(), 4u);
  EXPECT_EQ(signed_run.x[0], 1.0);
  for (std::size_t j = 1; j < 4; ++j) {
    EXPECT_TRUE(std::signbit(signed_run.x[j])) << "node " << j;
  }

  // ∂U near 1e15: node 0 still has the largest marginal utility, but the
  // rounding guard fails, so the certificate refuses.
  const SingleFileModel huge =
      hand_built_model({1e15, 1e15 + 1e3, 1e15 + 1e3, 1e15 + 1e3});
  const std::vector<double> huge_du =
      certificate_marginal_utilities(huge, vertex(4, 0));
  EXPECT_GT(huge_du[0], huge_du[1]);
  EXPECT_FALSE(fap::core::detail::vertex_start_terminates(
      huge_du.data(), 4, 0, options.alpha, options.epsilon));
}

// The certificate's theorem on random vertex instances: whenever it
// holds, the active-set procedure's set A at x = e_s has a marginal
// utility spread below ε, so the allocator's first check would stop
// there. The ∂U are drawn spread out, ulp-close, tied with s, clustered
// around ε, or mixed, with α in (0, 2].
TEST(SimplexAllocator, VertexCertificateImpliesTerminalSpread) {
  constexpr std::size_t kInstances = 200000;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(20261019);
  fap::core::detail::ActiveSetWorkspace ws;
  fap::core::ConstraintGroup group;
  std::vector<double> x;
  std::vector<double> du;
  std::vector<double> caps;
  std::size_t certified = 0;
  for (std::size_t t = 0; t < kInstances; ++t) {
    const std::size_t n = rng.uniform() < 0.05
                              ? 2 + rng.uniform_index(127)   // 2..128
                              : 2 + rng.uniform_index(31);   // 2..32
    const std::size_t s = rng.uniform_index(n);
    const double alpha = 2.0 * (1.0 - rng.uniform());  // (0, 2]
    const double epsilon = rng.uniform() < 0.5 ? 1e-4 : 1e-6;
    const double scale = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const double top = (rng.uniform() < 0.8 ? -1.0 : 1.0) * scale;
    const std::size_t mode = rng.uniform_index(5);
    du.assign(n, top);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == s) {
        continue;
      }
      const std::size_t kind = mode == 4 ? rng.uniform_index(4) : mode;
      switch (kind) {
        case 0:  // spread out
          du[i] = top - scale * rng.uniform(0.0, 10.0);
          break;
        case 1: {  // a few ulps below (or, rarely, above) the top
          double v = top;
          const std::size_t steps = rng.uniform_index(4);
          const double toward = rng.uniform() < 0.9 ? -kInf : kInf;
          for (std::size_t k = 0; k < steps; ++k) {
            v = std::nextafter(v, toward);
          }
          du[i] = v;
          break;
        }
        case 2:  // tied with s
          du[i] = top;
          break;
        default:  // clustered within a few ε of the top
          du[i] = top - epsilon * rng.uniform(-0.1, 3.0);
          break;
      }
    }
    x.assign(n, 0.0);
    x[s] = 1.0;
    caps.assign(n, kInf);
    group.indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      group.indices[i] = i;
    }
    if (!fap::core::detail::vertex_start_terminates(du.data(), n, s, alpha,
                                                   epsilon)) {
      continue;
    }
    ++certified;
    fap::core::detail::active_set_fast(group, x, du, alpha, caps, n, ws);
    double lo = kInf;
    double hi = -kInf;
    for (const std::size_t i : ws.active) {
      lo = std::min(lo, du[i]);
      hi = std::max(hi, du[i]);
    }
    ASSERT_LT(hi - lo, epsilon) << "instance " << t << ", n = " << n;
  }
  // Most draws keep s on top; draws with a rival above it are rejected.
  EXPECT_GT(certified, kInstances / 2);
  EXPECT_LT(certified, kInstances);
}

}  // namespace
