// The batched SoA kernel's load-bearing contract: BatchAllocator::run_all
// returns results BITWISE equal to running each submission through the
// serial ResourceDirectedAllocator — same x (every lane of every
// iteration executes the serial operation sequence), same cost, same
// iteration count, same convergence flag. The pin is across randomized
// instances mixing topologies, delay disciplines, step rules, storage
// capacities and boundary starts, at several batch widths (partitioning
// into lanes must not be observable).
#include "core/batch_allocator.hpp"

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
#include "core/simd_dispatch.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "queueing/delay.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::core::AllocationResult;
using fap::core::AllocatorOptions;
using fap::core::BatchAllocator;
using fap::core::BatchRunResult;
using fap::core::ResourceDirectedAllocator;
using fap::core::SingleFileModel;
using fap::core::SingleFileProblem;
using fap::core::StepRule;
using fap::core::Workload;
using fap::queueing::DelayModel;
using fap::util::Rng;

// Bitwise double equality: stricter than EXPECT_EQ (distinguishes -0.0
// from +0.0) — the batch path must reproduce the serial bits exactly.
::testing::AssertionResult BitsEqual(double serial, double batch) {
  if (std::bit_cast<std::uint64_t>(serial) ==
      std::bit_cast<std::uint64_t>(batch)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "serial=" << serial << " batch=" << batch << " differ by "
         << (batch - serial);
}

struct RandomInstance {
  SingleFileModel model;
  AllocatorOptions options;
  std::vector<double> start;
};

fap::net::Topology random_topology(std::size_t n, Rng& rng) {
  switch (rng.uniform_index(4)) {
    case 0:
      return fap::net::make_ring(n, rng.uniform(0.5, 2.0));
    case 1:
      return fap::net::make_complete(n, rng.uniform(0.5, 2.0));
    case 2:
      return fap::net::make_star(n, rng.uniform(0.5, 2.0));
    default:
      return fap::net::make_line(n, rng.uniform(0.5, 2.0));
  }
}

// `multi_server` = false leaves out the M/M/c law (the last case).
DelayModel random_delay(Rng& rng, bool multi_server) {
  switch (rng.uniform_index(multi_server ? 5 : 4)) {
    case 0:
      return DelayModel::mm1();
    case 1:
      return DelayModel::md1();
    case 2:
      return DelayModel::mg1(rng.uniform(0.2, 2.5));
    case 3:
      // Tangent-extended curve: exercises the knee clamp in the
      // vectorized derivative rows.
      return DelayModel::mm1(rng.uniform(0.5, 0.9));
    default:
      // Multi-server lane: forces the whole batch onto the per-lane
      // scalar derivative path.
      return DelayModel::mmc(2 + rng.uniform_index(3));
  }
}

// A feasible start covering the interesting shapes: interior, partly on
// the x = 0 boundary, or saturating a capacity.
std::vector<double> random_start(std::size_t n, const std::vector<double>& caps,
                                 Rng& rng) {
  std::vector<double> x(n, 0.0);
  for (double& v : x) {
    v = rng.uniform(0.05, 1.0);
  }
  if (rng.uniform() < 0.4) {
    // Put some nodes exactly on the lower boundary (keep at least one).
    for (std::size_t i = 1; i < n; ++i) {
      if (rng.uniform() < 0.5) {
        x[i] = 0.0;
      }
    }
  }
  double total = 0.0;
  for (const double v : x) {
    total += v;
  }
  for (double& v : x) {
    v /= total;
  }
  if (!caps.empty()) {
    // Clamp to the caps and redistribute the excess proportionally to the
    // remaining headroom (excess <= headroom because total capacity has
    // slack, so one pass cannot overshoot any cap). Some components land
    // exactly ON their cap — the capacity-boundary start shape.
    double excess = 0.0;
    double headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] > caps[i]) {
        excess += x[i] - caps[i];
        x[i] = caps[i];
      } else {
        headroom += caps[i] - x[i];
      }
    }
    if (excess > 0.0) {
      FAP_EXPECTS(headroom >= excess, "random caps left no slack");
      for (std::size_t i = 0; i < n; ++i) {
        if (x[i] < caps[i]) {
          x[i] += excess * ((caps[i] - x[i]) / headroom);
        }
      }
    }
  }
  return x;
}

// The randomized mix on exactly `n` nodes.
RandomInstance make_instance(Rng& rng, std::size_t n, bool multi_server) {
  const fap::net::Topology topology = random_topology(n, rng);
  const DelayModel delay = random_delay(rng, multi_server);
  // Total rate 1, per-server mu comfortably above it: every reachable
  // allocation (x_i <= 1) is stable even for the pure rho_max = 1 models.
  const double mu = rng.uniform(1.3, 3.0);
  const double k = rng.uniform(0.3, 2.0);
  SingleFileProblem problem = fap::core::make_problem(
      topology, Workload::uniform(n, 1.0), mu, k, delay);
  std::vector<double> caps;
  if (rng.uniform() < 0.4) {
    caps.resize(n);
    for (double& c : caps) {
      c = rng.uniform(0.3, 1.0);
    }
    // Guarantee slack: total capacity at least 1.5x the unit total.
    double total_cap = 0.0;
    for (const double c : caps) {
      total_cap += c;
    }
    if (total_cap < 1.5) {
      for (double& c : caps) {
        c *= 1.5 / total_cap;
      }
    }
    problem.storage_capacity = caps;
  }

  AllocatorOptions options;
  options.alpha = rng.uniform(0.05, 0.5);
  if (rng.uniform() < 0.5) {
    options.step_rule = StepRule::kDynamic;
  }
  options.epsilon = rng.uniform() < 0.5 ? 1e-3 : 1e-5;
  // Include tight caps so the non-converged retirement path is hit.
  const std::size_t iteration_caps[] = {40, 200, 20000};
  options.max_iterations = iteration_caps[rng.uniform_index(3)];

  RandomInstance inst{SingleFileModel(std::move(problem)), options, {}};
  inst.start = random_start(n, caps, rng);
  return inst;
}

RandomInstance make_random_instance(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 3 + rng.uniform_index(10);  // 3..12 nodes
  return make_instance(rng, n, /*multi_server=*/true);
}

void expect_bitwise_equal(const BatchRunResult& expected,
                          const BatchRunResult& actual) {
  EXPECT_EQ(expected.converged, actual.converged);
  EXPECT_EQ(expected.iterations, actual.iterations);
  EXPECT_TRUE(BitsEqual(expected.cost, actual.cost));
  ASSERT_EQ(expected.x.size(), actual.x.size());
  for (std::size_t j = 0; j < expected.x.size(); ++j) {
    EXPECT_TRUE(BitsEqual(expected.x[j], actual.x[j])) << "node " << j;
  }
}

void expect_matches_serial(const RandomInstance& inst,
                           const BatchRunResult& batch, std::size_t index) {
  const ResourceDirectedAllocator serial(inst.model, inst.options);
  const AllocationResult expected = serial.run(inst.start);
  SCOPED_TRACE("instance " + std::to_string(index));
  EXPECT_EQ(expected.converged, batch.converged);
  EXPECT_EQ(expected.iterations, batch.iterations);
  EXPECT_TRUE(BitsEqual(expected.cost, batch.cost));
  ASSERT_EQ(expected.x.size(), batch.x.size());
  for (std::size_t j = 0; j < expected.x.size(); ++j) {
    EXPECT_TRUE(BitsEqual(expected.x[j], batch.x[j])) << "node " << j;
  }
}

// The headline pin: >= 200 randomized instances, two batch widths, every
// result field bitwise equal to the serial allocator.
TEST(BatchAllocator, BitIdenticalToSerialAcrossRandomizedInstances) {
  constexpr std::size_t kInstances = 200;
  std::vector<RandomInstance> instances;
  instances.reserve(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(1000 + i));
  }
  for (const std::size_t width : {std::size_t{8}, std::size_t{64}}) {
    BatchAllocator batch(width);
    for (const RandomInstance& inst : instances) {
      batch.submit(inst.model, inst.options, inst.start);
    }
    const std::vector<BatchRunResult> results = batch.run_all();
    ASSERT_EQ(results.size(), kInstances);
    EXPECT_EQ(batch.stats().instances, kInstances);
    EXPECT_GT(batch.stats().lockstep_iterations, 0u);
    for (std::size_t i = 0; i < kInstances; ++i) {
      expect_matches_serial(instances[i], results[i], i);
    }
  }
}

// Degenerate widths: a single lane (pure serial schedule through the
// batch code paths) must agree too.
TEST(BatchAllocator, WidthOneMatchesSerial) {
  BatchAllocator batch(1);
  std::vector<RandomInstance> instances;
  for (std::size_t i = 0; i < 16; ++i) {
    instances.push_back(make_random_instance(7000 + i));
    batch.submit(instances.back().model, instances.back().options,
                 instances.back().start);
  }
  const std::vector<BatchRunResult> results = batch.run_all();
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    expect_matches_serial(instances[i], results[i], i);
  }
}

// A start already at the optimum terminates without stepping: converged,
// zero iterations, x returned unchanged.
TEST(BatchAllocator, AlreadyConvergedLaneRetiresImmediately) {
  const SingleFileModel model(fap::core::make_paper_ring_problem());
  AllocatorOptions options;
  options.alpha = 0.2;
  options.epsilon = 1e-6;
  const std::vector<double> start(4, 0.25);  // symmetric == optimal
  const AllocationResult serial =
      ResourceDirectedAllocator(model, options).run(start);
  ASSERT_TRUE(serial.converged);

  BatchAllocator batch(8);
  batch.submit(model, options, start);
  const std::vector<BatchRunResult> results = batch.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].converged, serial.converged);
  EXPECT_EQ(results[0].iterations, serial.iterations);
  EXPECT_TRUE(BitsEqual(results[0].cost, serial.cost));
}

// A hand-built uncapped instance: λ = 1 split evenly, k = 1, access
// costs given, μ = 2 at every node unless stated. Under M/M/1 with μ = 2
// its marginal utilities at the vertex e_s are ∂U_s = -(C_s + 2) and
// ∂U_i = -(C_i + 0.5) for i != s.
SingleFileModel hand_built_model(std::vector<double> access,
                                 DelayModel delay = DelayModel::mm1(),
                                 double mu = 2.0) {
  const std::size_t n = access.size();
  SingleFileProblem problem{nullptr,
                            std::vector<double>(n, 1.0 / static_cast<double>(n)),
                            std::vector<double>(n, mu),
                            1.0,
                            delay,
                            {},
                            {},
                            std::move(access)};
  return SingleFileModel(std::move(problem));
}

std::vector<double> vertex(std::size_t n, std::size_t s) {
  std::vector<double> x(n, 0.0);
  x[s] = 1.0;
  return x;
}

// ∂U at `start` as the lanes' first derivative row evaluates it.
std::vector<double> lane_marginal_utilities(const SingleFileModel& model,
                                            const std::vector<double>& start) {
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

// Whether the vertex certificate holds for `model` started at e_s.
bool certifies(const SingleFileModel& model, const AllocatorOptions& options,
               std::size_t s) {
  const std::vector<double> du =
      lane_marginal_utilities(model, vertex(model.dimension(), s));
  return fap::core::detail::vertex_start_terminates(
      du.data(), du.size(), s, options.alpha, options.epsilon);
}

// Submits `start` alone, runs it through a lane and pins the result
// bitwise to the serial allocator; returns the serial run.
AllocationResult run_against_serial(const SingleFileModel& model,
                                    const AllocatorOptions& options,
                                    const std::vector<double>& start) {
  const AllocationResult serial =
      ResourceDirectedAllocator(model, options).run(start);
  BatchAllocator batch(8);
  batch.submit(model, options, start);
  const std::vector<BatchRunResult> results = batch.run_all();
  EXPECT_EQ(results.size(), 1u);
  if (results.size() != 1) {
    return serial;
  }
  expect_bitwise_equal({serial.x, serial.cost, serial.converged,
                        serial.iterations},
                       results[0]);
  return serial;
}

// The lane-step counters: a lane is live for one lockstep iteration per
// step it takes, plus the one that finds it converged; boundary steps are
// the subset that took the gathered active-set path. A point mass that is
// already optimal takes one lane step like any other converged start.
TEST(BatchAllocator, LaneStepCountersAddUp) {
  BatchAllocator batch(8);
  std::vector<RandomInstance> instances;
  for (std::size_t i = 0; i < 40; ++i) {
    instances.push_back(make_random_instance(3000 + i));
    batch.submit(instances.back().model, instances.back().options,
                 instances.back().start);
  }
  // One point mass on the cheapest node.
  const SingleFileModel cheap_vertex =
      hand_built_model({1.0, 10.0, 10.0, 10.0});
  batch.submit(cheap_vertex, AllocatorOptions{}, vertex(4, 0));
  std::size_t expected = 0;
  for (const BatchRunResult& result : batch.run_all()) {
    expected += result.iterations + (result.converged ? 1 : 0);
  }
  EXPECT_EQ(batch.stats().instances, instances.size() + 1);
  EXPECT_EQ(batch.stats().lane_steps, expected);
  EXPECT_GT(batch.stats().boundary_lane_steps, 0u);
  EXPECT_LT(batch.stats().boundary_lane_steps, batch.stats().lane_steps);

  // A start at the optimum: one live step, and nobody pinned.
  const SingleFileModel model(fap::core::make_paper_ring_problem());
  AllocatorOptions options;
  options.epsilon = 1e-6;
  batch.submit(model, options, std::vector<double>(4, 0.25));
  batch.run_all();
  EXPECT_EQ(batch.stats().lane_steps, 1u);
  EXPECT_EQ(batch.stats().boundary_lane_steps, 0u);
}

TEST(BatchAllocator, RunAllOnEmptyQueueReturnsEmpty) {
  BatchAllocator batch;
  EXPECT_TRUE(batch.run_all().empty());
  EXPECT_EQ(batch.stats().instances, 0u);
}

// One allocator reused for batch after batch — the node count growing
// and shrinking (3, then up to 12 mixed, 100, 3), one live lane and then
// all 64, an M/M/c lane present and then absent, capped and uncapped
// instances, fixed and dynamic steps — returns every run bitwise equal to
// a fresh allocator of the same width and to the serial allocator:
// run_all() must leave nothing behind that the next batch can see, and
// the flat queue must hand each lane its own instance's values.
TEST(BatchAllocator, ReusableAcrossRounds) {
  struct Shape {
    std::size_t min_nodes;
    std::size_t max_nodes;
    std::size_t instances;
    bool multi_server;
  };
  const Shape shapes[] = {{3, 3, 1, false},
                          {3, 12, 80, true},
                          {100, 100, 64, false},
                          {3, 3, 72, true}};
  BatchAllocator reused(BatchAllocator::kDefaultWidth);
  std::uint64_t seed = 42;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("nodes " + std::to_string(shape.max_nodes) +
                 ", instances " + std::to_string(shape.instances));
    BatchAllocator fresh(BatchAllocator::kDefaultWidth);
    std::vector<RandomInstance> instances;
    std::size_t multi_server = 0;
    std::size_t capped = 0;
    std::size_t dynamic = 0;
    for (std::size_t i = 0; i < shape.instances; ++i) {
      Rng rng(seed++);
      const std::size_t n =
          shape.min_nodes +
          rng.uniform_index(shape.max_nodes - shape.min_nodes + 1);
      instances.push_back(make_instance(rng, n, shape.multi_server));
      const RandomInstance& inst = instances.back();
      multi_server += inst.model.problem().delay.discipline() ==
                      fap::queueing::Discipline::kMMc;
      capped += !inst.model.problem().storage_capacity.empty();
      dynamic += inst.options.step_rule == StepRule::kDynamic;
      fresh.submit(inst.model, inst.options, inst.start);
      reused.submit(inst.model, inst.options, inst.start);
    }
    if (shape.instances > 1) {
      // The mix this test is about, not an accident of the seeds.
      EXPECT_EQ(multi_server > 0, shape.multi_server);
      EXPECT_GT(capped, 0u);
      EXPECT_LT(capped, shape.instances);
      EXPECT_GT(dynamic, 0u);
      EXPECT_LT(dynamic, shape.instances);
    }
    const std::vector<BatchRunResult> expected = fresh.run_all();
    const std::vector<BatchRunResult> actual = reused.run_all();
    EXPECT_EQ(reused.pending(), 0u);
    ASSERT_EQ(expected.size(), shape.instances);
    ASSERT_EQ(actual.size(), shape.instances);
    for (std::size_t i = 0; i < shape.instances; ++i) {
      SCOPED_TRACE("instance " + std::to_string(i));
      expect_bitwise_equal(expected[i], actual[i]);
      expect_matches_serial(instances[i], actual[i], i);
    }
  }
}

// Pins dispatch to one kernel set for a scope (and restores env/CPUID
// dispatch on exit, even through assertion failures).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(fap::core::SimdLevel level) {
    fap::core::force_simd_level(level);
  }
  ~ScopedSimdLevel() { fap::core::clear_simd_override(); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
};

bool avx2_available() {
  return fap::core::avx2_kernels_compiled() && fap::core::cpu_supports_avx2();
}

// The second equivalence pin: the hand-vectorized AVX2 kernels must be
// bitwise equal to the portable scalar kernels — same randomized
// instance mix as the serial pin (capacity-clipped boundary lanes, M/M/c
// fallback lanes, dynamic-step lanes, retire/backfill/compaction churn
// from mixed iteration caps), both batch widths. Skipped (not silently
// passed) on machines without AVX2.
TEST(BatchAllocator, Avx2KernelsBitIdenticalToScalarKernels) {
  if (!avx2_available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  constexpr std::size_t kInstances = 200;
  std::vector<RandomInstance> instances;
  instances.reserve(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(7000 + i));
  }
  for (const std::size_t width : {std::size_t{8}, std::size_t{64}}) {
    std::vector<BatchRunResult> scalar_results;
    std::vector<BatchRunResult> avx2_results;
    {
      ScopedSimdLevel pin(fap::core::SimdLevel::kScalar);
      BatchAllocator batch(width);
      for (const RandomInstance& inst : instances) {
        batch.submit(inst.model, inst.options, inst.start);
      }
      scalar_results = batch.run_all();
      EXPECT_STREQ(batch.stats().kernels, "scalar");
    }
    {
      ScopedSimdLevel pin(fap::core::SimdLevel::kAvx2);
      BatchAllocator batch(width);
      for (const RandomInstance& inst : instances) {
        batch.submit(inst.model, inst.options, inst.start);
      }
      avx2_results = batch.run_all();
      EXPECT_STREQ(batch.stats().kernels, "avx2");
    }
    ASSERT_EQ(scalar_results.size(), avx2_results.size());
    for (std::size_t i = 0; i < kInstances; ++i) {
      SCOPED_TRACE("width " + std::to_string(width) + " instance " +
                   std::to_string(i));
      expect_bitwise_equal(scalar_results[i], avx2_results[i]);
    }
  }
}

// Whatever level dispatch picks on this machine must also be bitwise
// equal to the serial allocator (the headline pin runs dispatched; this
// one makes the triangle serial == scalar == dispatched explicit on a
// smaller mix).
TEST(BatchAllocator, DispatchedKernelsMatchSerialAndScalar) {
  constexpr std::size_t kInstances = 40;
  BatchAllocator dispatched(16);
  std::vector<RandomInstance> instances;
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_random_instance(9100 + i));
    dispatched.submit(instances.back().model, instances.back().options,
                      instances.back().start);
  }
  const std::vector<BatchRunResult> results = dispatched.run_all();
  EXPECT_STREQ(dispatched.stats().kernels,
               fap::core::simd_level_name(fap::core::active_simd_level()));
  for (std::size_t i = 0; i < kInstances; ++i) {
    expect_matches_serial(instances[i], results[i], i);
  }
}

// submit() checks the options and the start; the model's own fields were
// checked by its constructor.
TEST(BatchAllocator, RejectsUnsupportedOptionsAndInfeasibleStarts) {
  const SingleFileModel model(fap::core::make_paper_ring_problem());
  BatchAllocator batch;
  AllocatorOptions options;
  options.record_trace = true;
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);
  options.record_trace = false;
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(4, 0.5)),
               fap::util::PreconditionError);  // mass 2 != 1: infeasible
  EXPECT_THROW(batch.submit(model, options, std::vector<double>(3, 1.0 / 3)),
               fap::util::PreconditionError);  // wrong dimension
  EXPECT_THROW(batch.submit(model, options, {1.25, -0.25, 0.0, 0.0}),
               fap::util::PreconditionError);  // negative entry
  AllocatorOptions bad = options;
  bad.alpha = -1.0;
  EXPECT_THROW(batch.submit(model, bad, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);
  bad = options;
  bad.epsilon = 0.0;
  EXPECT_THROW(batch.submit(model, bad, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);
  bad = options;
  bad.max_iterations = 0;
  EXPECT_THROW(batch.submit(model, bad, std::vector<double>(4, 0.25)),
               fap::util::PreconditionError);

  // A start over a storage capacity is infeasible even when it sums to 1.
  SingleFileProblem capped = model.problem();
  capped.storage_capacity.assign(4, 0.5);
  const SingleFileModel capped_model(std::move(capped));
  EXPECT_THROW(batch.submit(capped_model, options, {0.9, 0.1, 0.0, 0.0}),
               fap::util::PreconditionError);
  EXPECT_NO_THROW(batch.submit(capped_model, options, {0.5, 0.5, 0.0, 0.0}));
  EXPECT_EQ(batch.pending(), 1u);  // rejected submissions queue nothing
}

// Every vertex of the suite's random single-server, uncapped instances,
// run at a fixed step: the lanes return the serial run bit for bit at
// every width and under both kernel sets. Where the vertex certificate
// holds, the serial run indeed stops at the start after 0 iterations; it
// holds for some of these starts and not for others.
TEST(BatchAllocator, VertexStartsMatchSerialBitwise) {
  std::vector<RandomInstance> instances;
  for (std::uint64_t seed = 1000; seed < 1200; ++seed) {
    RandomInstance inst = make_random_instance(seed);
    const SingleFileProblem& problem = inst.model.problem();
    if (!problem.storage_capacity.empty() ||
        problem.delay.discipline() == fap::queueing::Discipline::kMMc) {
      continue;
    }
    inst.options.step_rule = StepRule::kFixed;
    for (std::size_t s = 0; s < inst.model.dimension(); ++s) {
      inst.start = vertex(inst.model.dimension(), s);
      instances.push_back(inst);
    }
  }
  std::vector<AllocationResult> serial;
  serial.reserve(instances.size());
  std::size_t certified = 0;
  for (const RandomInstance& inst : instances) {
    serial.push_back(
        ResourceDirectedAllocator(inst.model, inst.options).run(inst.start));
    const std::size_t s = static_cast<std::size_t>(
        std::find(inst.start.begin(), inst.start.end(), 1.0) -
        inst.start.begin());
    if (certifies(inst.model, inst.options, s)) {
      ++certified;
      EXPECT_TRUE(serial.back().converged);
      EXPECT_EQ(serial.back().iterations, 0u);
      EXPECT_EQ(serial.back().x, inst.start);
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_LT(certified, instances.size());
  std::vector<fap::core::SimdLevel> levels = {fap::core::SimdLevel::kScalar};
  if (avx2_available()) {
    levels.push_back(fap::core::SimdLevel::kAvx2);
  }
  for (const fap::core::SimdLevel level : levels) {
    ScopedSimdLevel pin(level);
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
      BatchAllocator batch(width);
      for (const RandomInstance& inst : instances) {
        batch.submit(inst.model, inst.options, inst.start);
      }
      const std::vector<BatchRunResult> results = batch.run_all();
      ASSERT_EQ(results.size(), instances.size());
      for (std::size_t i = 0; i < instances.size(); ++i) {
        SCOPED_TRACE(std::string(fap::core::simd_level_name(level)) +
                     " width " + std::to_string(width) + " start " +
                     std::to_string(i));
        const BatchRunResult expected{serial[i].x, serial[i].cost,
                                      serial[i].converged,
                                      serial[i].iterations};
        expect_bitwise_equal(expected, results[i]);
      }
    }
  }
}

// Hand-built margins ∂U_s - max_{i != s} ∂U_i around the certificate's
// edge, asserted on the decision itself: a tie and +1 ulp are certified,
// -1 ulp is not, and ±ε/2 fall on either side. Each start also runs
// through a lane against the serial allocator, which stops at once where
// the certificate holds.
TEST(BatchAllocator, VertexCertificateMarginsAndSignedZeros) {
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
    const std::vector<double> du = lane_marginal_utilities(model, start);
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
    const AllocationResult serial = run_against_serial(model, options, start);
    if (c.certified) {
      EXPECT_EQ(serial.iterations, 0u);
    }
  }

  // A start whose empty nodes hold -0.0 is a vertex too; its lane
  // converges at once and keeps those bits (run_against_serial compares
  // them to the serial x).
  const SingleFileModel model = hand_built_model({1.0, 2.5, 10.0, 10.0});
  const std::vector<double> signed_start = {1.0, -0.0, -0.0, -0.0};
  EXPECT_EQ(run_against_serial(model, options, signed_start).iterations, 0u);
  BatchAllocator batch;
  batch.submit(model, options, signed_start);
  const std::vector<BatchRunResult> results = batch.run_all();
  ASSERT_EQ(results.size(), 1u);
  for (std::size_t j = 1; j < 4; ++j) {
    EXPECT_TRUE(std::signbit(results[0].x[j])) << "node " << j;
  }

  // ∂U near 1e15: node 0 still has the largest marginal utility, but the
  // rounding guard fails, so the certificate refuses.
  const SingleFileModel huge =
      hand_built_model({1e15, 1e15 + 1e3, 1e15 + 1e3, 1e15 + 1e3});
  const std::vector<double> huge_du =
      lane_marginal_utilities(huge, vertex(4, 0));
  EXPECT_GT(huge_du[0], huge_du[1]);
  EXPECT_FALSE(fap::core::detail::vertex_start_terminates(
      huge_du.data(), 4, 0, options.alpha, options.epsilon));
  run_against_serial(huge, options, vertex(4, 0));
}

// Variants of a start the certificate holds for — dynamic α, storage
// caps, M/M/c, a near vertex and a vertex plus dust — each run through a
// lane bitwise equal to the serial allocator. The catalog certifies none
// of these families (its golden pins count them).
TEST(BatchAllocator, VertexCertificateFallbackFamilies) {
  const std::vector<double> access = {1.0, 2.5 + 5e-5, 10.0, 10.0};
  AllocatorOptions options;
  options.epsilon = 1e-4;
  ASSERT_TRUE(certifies(hand_built_model(access), options, 0));
  run_against_serial(hand_built_model(access), options, vertex(4, 0));

  AllocatorOptions dynamic = options;
  dynamic.step_rule = StepRule::kDynamic;
  run_against_serial(hand_built_model(access), dynamic, vertex(4, 0));

  SingleFileProblem capped = hand_built_model(access).problem();
  capped.storage_capacity.assign(4, 1.0);
  run_against_serial(SingleFileModel(std::move(capped)), options,
                     vertex(4, 0));

  run_against_serial(hand_built_model(access, DelayModel::mmc(2)), options,
                     vertex(4, 0));

  const std::vector<double> near_vertex = {1.0 - 0x1p-20, 0x1p-20, 0.0, 0.0};
  run_against_serial(hand_built_model(access), options, near_vertex);
  // A whole unit at node 0 plus dust elsewhere is feasible (Σ within
  // 1e-9 of 1) but is no vertex.
  const std::vector<double> dusty = {1.0, 0x1p-40, 0.0, 0.0};
  run_against_serial(hand_built_model(access), options, dusty);
}

// The certificate's theorem on random vertex instances: whenever it
// holds, the active-set procedure's set A at x = e_s has a marginal
// utility spread below ε, so the lane's first check would stop there.
// The ∂U are drawn spread out, ulp-close, tied with s, clustered around
// ε, or mixed, with α in (0, 2].
TEST(BatchAllocator, VertexCertificateImpliesTerminalSpread) {
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
