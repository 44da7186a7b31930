// CatalogSolver acceptance pins:
//
//   * K = 1 with slack capacity IS the paper's algorithm — the catalog
//     result is bitwise equal to the serial ResourceDirectedAllocator run
//     on the identical single-file problem (handed the solver's own
//     assembled access-cost vector via access_cost_override);
//   * the whole CatalogResult is a pure function of (spec, options):
//     bit-identical across --jobs and batch-width choices;
//   * with slack capacity the engine degenerates to K independent
//     single-file solves at zero prices, each matching its serial twin;
//   * under tight capacity the returned allocation is FEASIBLE: residual
//     <= 1e-9 in volume units, every object's fractions still sum to 1;
//   * two contended solves, one that exhausts the price rounds and one
//     that converges, are pinned byte for byte by golden digests.
#include "catalog/catalog_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_spec.hpp"
#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "net/shortest_paths.hpp"
#include "queueing/delay.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

using fap::catalog::CatalogOptions;
using fap::catalog::CatalogResult;
using fap::catalog::CatalogSolver;
using fap::catalog::CatalogSpec;
using fap::catalog::make_synthetic_catalog;
using fap::catalog::Placement;
using fap::catalog::SyntheticCatalogOptions;
using fap::core::AllocationResult;
using fap::core::ResourceDirectedAllocator;
using fap::core::SingleFileModel;
using fap::util::PreconditionError;

::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " differ by " << (b - a);
}

// Object o's dense allocation vector from the CSR result.
std::vector<double> dense_allocation(const CatalogSpec& spec,
                                     const CatalogResult& result,
                                     std::size_t o) {
  std::vector<double> x(spec.node_count(), 0.0);
  for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1]; ++p) {
    x[result.placements[p].node] += result.placements[p].fraction;
  }
  return x;
}

// The serial twin of catalog object o at the given prices: its lane model
// run by the serial allocator from the solver's own deterministic start.
AllocationResult serial_reference(const CatalogSpec& spec,
                                  const CatalogSolver& solver, std::size_t o,
                                  const std::vector<double>& prices) {
  const SingleFileModel model =
      fap::testing::catalog_lane_model(spec, solver, o, prices);
  const ResourceDirectedAllocator serial(model, solver.options().inner);
  return serial.run(solver.object_start(o, prices));
}

void expect_identical(const CatalogResult& a, const CatalogResult& b) {
  EXPECT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  for (std::size_t p = 0; p < a.placements.size(); ++p) {
    EXPECT_EQ(a.placements[p].node, b.placements[p].node) << "entry " << p;
    EXPECT_TRUE(BitsEqual(a.placements[p].fraction, b.placements[p].fraction))
        << "entry " << p;
  }
  ASSERT_EQ(a.prices.size(), b.prices.size());
  for (std::size_t i = 0; i < a.prices.size(); ++i) {
    EXPECT_TRUE(BitsEqual(a.prices[i], b.prices[i])) << "node " << i;
    EXPECT_TRUE(BitsEqual(a.node_load[i], b.node_load[i])) << "node " << i;
  }
  EXPECT_TRUE(BitsEqual(a.residual, b.residual));
  EXPECT_TRUE(BitsEqual(a.pre_repair_residual, b.pre_repair_residual));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.price_converged, b.price_converged);
  EXPECT_EQ(a.oscillations, b.oscillations);
  EXPECT_EQ(a.repair_moves, b.repair_moves);
  EXPECT_EQ(a.inner_iterations, b.inner_iterations);
  EXPECT_EQ(a.unconverged_objects, b.unconverged_objects);
  EXPECT_TRUE(BitsEqual(a.hit_rate, b.hit_rate));
  EXPECT_TRUE(BitsEqual(a.external_traffic, b.external_traffic));
  EXPECT_TRUE(BitsEqual(a.mean_fragments, b.mean_fragments));
}

// The ISSUE acceptance pin: K = 1, slack capacity — the catalog engine
// must reproduce the serial paper algorithm bit for bit.
TEST(CatalogSolver, SingleObjectSlackCapacityMatchesSerialBitwise) {
  SyntheticCatalogOptions synth;
  synth.objects = 1;
  synth.nodes = 9;
  synth.headroom = 2.0;
  const CatalogSpec spec = make_synthetic_catalog(synth, 11);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();

  // Slack capacity: the price loop converges at round 0 with zero prices,
  // no repair touches anything.
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(result.price_converged);
  EXPECT_EQ(result.repair_moves, 0u);
  EXPECT_DOUBLE_EQ(result.pre_repair_residual, 0.0);
  for (const double p : result.prices) {
    EXPECT_EQ(p, 0.0);
  }

  const std::vector<double> zero_prices(spec.node_count(), 0.0);
  const AllocationResult expected =
      serial_reference(spec, solver, 0, zero_prices);
  EXPECT_TRUE(expected.converged);
  EXPECT_EQ(result.inner_iterations, expected.iterations);
  EXPECT_EQ(result.unconverged_objects, 0u);
  const std::vector<double> x = dense_allocation(spec, result, 0);
  ASSERT_EQ(x.size(), expected.x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
  }
}

// With slack everywhere the catalog is exactly K independent single-file
// problems: every object's allocation matches its serial twin.
TEST(CatalogSolver, SlackCapacityDecomposesIntoIndependentSolves) {
  SyntheticCatalogOptions synth;
  synth.objects = 40;
  synth.nodes = 8;
  synth.headroom = 1.5;
  synth.zipf_s = 1.0;
  const CatalogSpec spec = make_synthetic_catalog(synth, 23);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_TRUE(result.price_converged);
  EXPECT_EQ(result.repair_moves, 0u);

  const std::vector<double> zero_prices(spec.node_count(), 0.0);
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    SCOPED_TRACE("object " + std::to_string(o));
    const AllocationResult expected =
        serial_reference(spec, solver, o, zero_prices);
    const std::vector<double> x = dense_allocation(spec, result, o);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(BitsEqual(expected.x[i], x[i])) << "node " << i;
    }
  }
}

// Determinism: jobs and batch width are pure throughput knobs — the full
// result struct is bit-identical, including after priced rounds + repair.
TEST(CatalogSolver, JobsAndBatchWidthAreUnobservable) {
  SyntheticCatalogOptions synth;
  synth.objects = 300;
  synth.nodes = 12;
  synth.headroom = 0.12;  // tight: prices move, repair likely engages
  synth.zipf_s = 1.1;
  const CatalogSpec spec = make_synthetic_catalog(synth, 5);

  CatalogOptions serial;
  serial.jobs = 1;
  const CatalogResult reference = CatalogSolver(spec, serial).solve();
  EXPECT_GE(reference.rounds, 1u);

  CatalogOptions parallel = serial;
  parallel.jobs = 4;
  expect_identical(reference, CatalogSolver(spec, parallel).solve());

  CatalogOptions narrow = serial;
  narrow.jobs = 8;
  narrow.batch_width = 7;  // lane partitioning must be unobservable too
  expect_identical(reference, CatalogSolver(spec, narrow).solve());
}

// Feasibility under pressure: tight budgets, hot Zipf head. The returned
// allocation must respect every capacity to 1e-9 volume units and keep
// every object whole.
TEST(CatalogSolver, TightCapacityYieldsFeasibleAllocation) {
  SyntheticCatalogOptions synth;
  synth.objects = 2000;
  synth.nodes = 16;
  synth.headroom = 0.1;
  synth.zipf_s = 0.9;
  const CatalogSpec spec = make_synthetic_catalog(synth, 77);
  const CatalogSolver solver(spec, CatalogOptions{});
  const CatalogResult result = solver.solve();

  EXPECT_LE(result.residual, 1e-9);
  for (std::size_t i = 0; i < spec.node_count(); ++i) {
    EXPECT_LE(result.node_load[i], spec.node_capacity[i] + 1e-9)
        << "node " << i;
  }
  if (result.pre_repair_residual > 1e-9) {
    EXPECT_GE(result.repair_moves, 1u);
  }

  // CSR integrity + per-object conservation (Σ_i x_i^o = 1).
  ASSERT_EQ(result.offsets.size(), spec.object_count() + 1);
  EXPECT_EQ(result.offsets.front(), 0u);
  EXPECT_EQ(result.offsets.back(), result.placements.size());
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    ASSERT_LE(result.offsets[o], result.offsets[o + 1]);
    fap::util::NeumaierSum mass;
    for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1];
         ++p) {
      ASSERT_LT(result.placements[p].node, spec.node_count());
      EXPECT_GT(result.placements[p].fraction, 0.0);
      EXPECT_LE(result.placements[p].fraction, 1.0 + 1e-12);
      mass.add(result.placements[p].fraction);
    }
    EXPECT_NEAR(mass.value(), 1.0, 1e-9) << "object " << o;
  }

  // Node-load accounting self-consistency: the reported loads are the
  // compensated sums over the reported placements.
  std::vector<fap::util::NeumaierSum> loads(spec.node_count());
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1];
         ++p) {
      loads[result.placements[p].node].add(spec.volume[o] *
                                           result.placements[p].fraction);
    }
  }
  for (std::size_t i = 0; i < spec.node_count(); ++i) {
    EXPECT_TRUE(BitsEqual(loads[i].value(), result.node_load[i]))
        << "node " << i;
  }

  EXPECT_GE(result.hit_rate, 0.0);
  EXPECT_LE(result.hit_rate, 1.0);
  EXPECT_GT(result.external_traffic, 0.0);
  EXPECT_GE(result.mean_fragments, 1.0);
}

/// FNV-1a over everything the price loop and the repair pass decide:
/// the CSR allocation, prices, loads, both residuals and the loop's
/// counters, doubles by bit pattern.
std::uint64_t price_loop_digest(const CatalogResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  for (const std::uint32_t offset : r.offsets) {
    mix(offset);
  }
  for (const Placement& placement : r.placements) {
    mix(placement.node);
    mix(bits(placement.fraction));
  }
  for (std::size_t i = 0; i < r.prices.size(); ++i) {
    mix(bits(r.prices[i]));
    mix(bits(r.node_load[i]));
  }
  mix(bits(r.residual));
  mix(bits(r.pre_repair_residual));
  mix(r.rounds);
  mix(r.oscillations);
  mix(bits(r.gamma));
  mix(r.repair_moves);
  return hash;
}

// Golden pins of three contended solves (10 nodes, 5% headroom). The
// first runs out of rounds and repairs; the second converges before the
// cap. Together they fix the price loop's γ₀, decay, tolerance and round
// cap and the repair pass's margin and pass limit. Their counters are
// asserted too, so a change that stops exercising the decay, the cap or
// the repair pass fails here and not only in the digest. The repair
// moves of the first two all append a placement on a node the object did
// not hold; of the third's 13 moves, 12 append and 1 adds to a placement
// the object already holds, so both repair branches are pinned.
TEST(CatalogSolver, ContendedGoldenPin) {
  struct Pin {
    std::size_t objects;
    std::uint64_t seed;
    std::size_t rounds;
    bool converged;
    std::size_t oscillations;
    double gamma;
    std::size_t repair_moves;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {100, 1, 16, false, 6, 0.0078125, 7, 0x9b6b991768f82934ULL},
      {200, 3, 13, true, 5, 0.015625, 3, 0xafd8a77d2eb2d04bULL},
      {1000, 2, 16, false, 6, 0.0078125, 13, 0xa409e09e224502a0ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("K = " + std::to_string(pin.objects) + ", seed " +
                 std::to_string(pin.seed));
    SyntheticCatalogOptions synth;
    synth.objects = pin.objects;
    synth.nodes = 10;
    synth.headroom = 0.05;
    synth.zipf_s = 0.9;
    synth.locality = 0.5;
    const CatalogSpec spec = make_synthetic_catalog(synth, pin.seed);
    const CatalogResult result = CatalogSolver(spec, CatalogOptions{}).solve();
    EXPECT_EQ(result.rounds, pin.rounds);
    EXPECT_EQ(result.price_converged, pin.converged);
    EXPECT_EQ(result.oscillations, pin.oscillations);
    EXPECT_EQ(result.gamma, pin.gamma);
    EXPECT_EQ(result.repair_moves, pin.repair_moves);
    EXPECT_GT(result.pre_repair_residual, 0.0);
    EXPECT_LE(result.residual, 1e-9);
    EXPECT_EQ(price_loop_digest(result), pin.digest)
        << std::hex << "0x" << price_loop_digest(result);
  }
}

// Golden pins of two wide solves (K = 2000 over 100 nodes, 25% headroom),
// the shape where nearly every inner step is a boundary lane: each object
// starts as a point mass with 99 nodes at the floor, so the inner solves
// run the active-set procedure on almost every iteration. The inner
// iteration total and the capped-object count are pinned with the digest,
// so a change to any active-set decision fails here by name.
TEST(CatalogSolver, WideGoldenPin) {
  struct Pin {
    std::uint64_t seed;
    std::size_t rounds;
    std::uint64_t inner_iterations;
    std::size_t unconverged_objects;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {1, 16, 220334, 50, 0x1b700a1852cc709dULL},
      {2, 16, 184709, 44, 0x9be20672638de995ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    SyntheticCatalogOptions synth;
    synth.objects = 2000;
    synth.nodes = 100;
    synth.headroom = 0.25;
    synth.zipf_s = 0.9;
    synth.locality = 0.5;
    const CatalogSpec spec = make_synthetic_catalog(synth, pin.seed);
    const CatalogResult result = CatalogSolver(spec, CatalogOptions{}).solve();
    EXPECT_EQ(result.rounds, pin.rounds);
    EXPECT_EQ(result.inner_iterations, pin.inner_iterations);
    EXPECT_EQ(result.unconverged_objects, pin.unconverged_objects);
    EXPECT_LE(result.residual, 1e-9);
    EXPECT_EQ(price_loop_digest(result), pin.digest)
        << std::hex << "0x" << price_loop_digest(result);
  }
}

// Solves `spec` with its batches' metrics in a MetricsSink and returns
// the result with the `certified` metric summed over every batch of every
// round; `batches` counts the records that carry it. The sink's file is
// named after the running test, so tests run in parallel processes do
// not share it.
CatalogResult solve_counting_certified(const CatalogSpec& spec,
                                       CatalogOptions options,
                                       double& certified,
                                       std::size_t& batches) {
  const std::string path =
      ::testing::TempDir() + "/catalog_certified_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  CatalogResult result;
  {
    fap::runtime::MetricsSink sink(path);
    options.metrics = &sink;
    options.run_id = "catalog_certified";
    result = CatalogSolver(spec, options).solve();
  }
  std::ifstream in(path);
  std::string line;
  certified = 0.0;
  batches = 0;
  const std::string key = "\"certified\":";
  while (std::getline(in, line)) {
    const std::size_t pos = line.find(key);
    if (pos != std::string::npos) {
      ++batches;
      certified += std::stod(line.substr(pos + key.size()));
    }
  }
  return result;
}

// perfbench's catalog_wide shape: K = 1e5 objects over 100 nodes solve
// in one price round, and the catalog's vertex certificate answers at
// least 99% of their point-mass starts without submitting them (99,871
// meet its condition at these prices). No output byte shows whether the
// certificate fires, so the batches' `certified` metric pins it. A
// smaller K is no cheaper: at K = 20,000 capacity binds and the solve
// runs 16 rounds.
TEST(CatalogSolver, WideCatalogCertifiesItsPointMassStarts) {
  SyntheticCatalogOptions synth;
  synth.objects = 100000;
  synth.nodes = 100;
  synth.headroom = 0.25;
  synth.zipf_s = 0.9;
  synth.locality = 0.5;
  const CatalogSpec spec = make_synthetic_catalog(synth, 1);
  double certified = 0.0;
  std::size_t batches = 0;
  const CatalogResult result =
      solve_counting_certified(spec, CatalogOptions{}, certified, batches);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(batches, (synth.objects + 63) / 64);
  EXPECT_GE(certified, 0.99 * static_cast<double>(synth.objects));
  EXPECT_LE(certified, static_cast<double>(synth.objects));
}

// Golden pins over the delay families the certificate must get right or
// refuse: M/M/1, M/D/1 and M/G/1 (SCV 2) with the tangent extension from
// ρ = 0.02 (the hottest ~35 objects' rates lie past that knee), and the
// pure (ρ_max = 1) M/M/1 law, each under both step rules, plus M/M/c.
// Each is a small catalog (K = 2,000 over 32 nodes, 30% headroom) solved
// over 1–16 priced rounds. The digests date from before the catalog
// decided the certificate itself, and each case's certified count, summed
// over its rounds, is pinned: none under dynamic α or M/M/c, whose starts
// all run their inner solves.
TEST(CatalogSolver, CertificateFamiliesGoldenPin) {
  using fap::core::StepRule;
  using fap::queueing::DelayModel;
  struct Pin {
    const char* family;
    DelayModel delay;
    StepRule rule;
    std::uint64_t seed;
    double certified;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"M/M/1, knee 0.02", DelayModel::mm1(0.02), StepRule::kFixed, 1, 21337,
       0x3347be332ac813daULL},
      {"M/M/1, knee 0.02", DelayModel::mm1(0.02), StepRule::kFixed, 2, 30966,
       0xfc3f3aae092978c5ULL},
      {"M/M/1, knee 0.02", DelayModel::mm1(0.02), StepRule::kDynamic, 1, 0,
       0xeb152898b2157a15ULL},
      {"M/M/1, knee 0.02", DelayModel::mm1(0.02), StepRule::kDynamic, 2, 0,
       0x998dae44a481f9aaULL},
      {"M/D/1, knee 0.02", DelayModel::md1(0.02), StepRule::kFixed, 1, 27566,
       0x2c8e502eaf5f1ad4ULL},
      {"M/D/1, knee 0.02", DelayModel::md1(0.02), StepRule::kFixed, 2, 31430,
       0x4f0a4388ae18b03eULL},
      {"M/D/1, knee 0.02", DelayModel::md1(0.02), StepRule::kDynamic, 1, 0,
       0x1d39a7da0402173bULL},
      {"M/D/1, knee 0.02", DelayModel::md1(0.02), StepRule::kDynamic, 2, 0,
       0x3ff776796643ad2aULL},
      {"M/G/1 SCV 2, knee 0.02", DelayModel::mg1(2.0, 0.02), StepRule::kFixed,
       1, 1911, 0x4f6853fedddf0938ULL},
      {"M/G/1 SCV 2, knee 0.02", DelayModel::mg1(2.0, 0.02), StepRule::kFixed,
       2, 22785, 0xed71bc099b9c87fbULL},
      {"M/G/1 SCV 2, knee 0.02", DelayModel::mg1(2.0, 0.02),
       StepRule::kDynamic, 1, 0, 0x9f6368c6af159868ULL},
      {"M/G/1 SCV 2, knee 0.02", DelayModel::mg1(2.0, 0.02),
       StepRule::kDynamic, 2, 0, 0x2600d241385a347dULL},
      {"pure M/M/1", DelayModel::mm1(), StepRule::kFixed, 1, 21336,
       0xb79dabf745b99719ULL},
      {"pure M/M/1", DelayModel::mm1(), StepRule::kFixed, 2, 30965,
       0xc097ec2ccc6e5a88ULL},
      {"pure M/M/1", DelayModel::mm1(), StepRule::kDynamic, 1, 0,
       0x377e178263612322ULL},
      {"pure M/M/1", DelayModel::mm1(), StepRule::kDynamic, 2, 0,
       0x48fc5853c4331043ULL},
      {"M/M/2", DelayModel::mmc(2), StepRule::kFixed, 1, 0,
       0x11a27686915076abULL},
      {"M/M/2", DelayModel::mmc(2), StepRule::kFixed, 2, 0,
       0x17c0d7ce2f43b19dULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.family) +
                 (pin.rule == StepRule::kFixed ? ", fixed" : ", dynamic") +
                 ", seed " + std::to_string(pin.seed));
    SyntheticCatalogOptions synth;
    synth.objects = 2000;
    synth.nodes = 32;
    synth.zipf_s = 0.9;
    synth.headroom = 0.3;
    CatalogSpec spec = make_synthetic_catalog(synth, pin.seed);
    spec.delay = pin.delay;
    CatalogOptions options;
    options.inner.step_rule = pin.rule;
    double certified = 0.0;
    std::size_t batches = 0;
    const CatalogResult result =
        solve_counting_certified(spec, options, certified, batches);
    EXPECT_EQ(certified, pin.certified);
    if (pin.rule == StepRule::kDynamic ||
        pin.delay.discipline() == fap::queueing::Discipline::kMMc) {
      EXPECT_EQ(certified, 0.0);
    }
    EXPECT_LE(result.residual, 1e-9);
    EXPECT_EQ(price_loop_digest(result), pin.digest)
        << std::hex << "0x" << price_loop_digest(result);
  }
}

// A hand-built spec where the optimum is obvious: full locality, huge
// capacity, cheap home service — everything lands at home, so hit rate
// is exactly 1 and external traffic exactly 0.
TEST(CatalogSolver, FullyLocalCatalogHitsAtHome) {
  CatalogSpec spec;
  spec.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(
          fap::net::all_pairs_shortest_paths(fap::net::make_complete(2, 1.0))));
  spec.node_capacity = {10.0, 10.0};
  spec.mu = {50.0, 50.0};
  spec.k = 1.0;
  spec.origin_weight = {0.5, 0.5};
  spec.locality = 1.0;
  spec.rate = {1.0, 1.0, 1.0, 1.0};
  spec.volume = {1.0, 1.0, 1.0, 1.0};
  spec.home = {0, 1, 0, 1};

  const CatalogResult result = CatalogSolver(spec, CatalogOptions{}).solve();
  EXPECT_DOUBLE_EQ(result.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.external_traffic, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_fragments, 1.0);
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    const std::vector<double> x = dense_allocation(spec, result, o);
    EXPECT_EQ(x[spec.home[o]], 1.0) << "object " << o;
  }
  EXPECT_TRUE(BitsEqual(result.node_load[0], 2.0));
  EXPECT_TRUE(BitsEqual(result.node_load[1], 2.0));
}

// The synthetic generator is a pure function of (options, seed).
TEST(CatalogSpecTest, SyntheticCatalogIsDeterministic) {
  SyntheticCatalogOptions synth;
  synth.objects = 128;
  synth.nodes = 10;
  const CatalogSpec a = make_synthetic_catalog(synth, 7);
  const CatalogSpec b = make_synthetic_catalog(synth, 7);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.home, b.home);
  EXPECT_EQ(a.node_capacity, b.node_capacity);
  EXPECT_EQ(a.origin_weight, b.origin_weight);
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    for (std::size_t j = 0; j < a.node_count(); ++j) {
      EXPECT_TRUE(BitsEqual(a.comm->row(i)[j], b.comm->row(i)[j]));
    }
  }

  const CatalogSpec d = make_synthetic_catalog(synth, 8);
  EXPECT_NE(a.volume, d.volume);  // different seed, different catalog

  // Rates follow the Zipf head-first ordering and keep queues stable.
  EXPECT_GT(a.rate.front(), a.rate.back());
  EXPECT_LT(a.rate.front(), a.mu.front());
}

// Providers are unobservable in the catalog result: the identical
// synthetic catalog over a geo-tier tree, solved through the dense matrix,
// the row-based provider, and the implicit tier-arithmetic provider, must
// return bit-identical CatalogResults — including after priced rounds.
TEST(CatalogSolver, ProviderBackedCatalogMatchesDenseBitwise) {
  const fap::net::TieredNetwork tiered = fap::net::make_geo_tiers(2, 2, 2);
  SyntheticCatalogOptions synth;
  synth.objects = 96;
  synth.nodes = tiered.topology.node_count();  // 21
  synth.headroom = 0.12;  // tight: the price loop actually engages
  synth.zipf_s = 1.0;
  const std::uint64_t seed = 29;

  const CatalogSpec dense = make_synthetic_catalog(
      synth, seed, fap::net::all_pairs_shortest_paths(tiered.topology));
  const CatalogResult reference = CatalogSolver(dense, CatalogOptions{}).solve();

  const CatalogSpec rows = make_synthetic_catalog(
      synth, seed,
      std::make_shared<fap::net::RowCostProvider>(tiered.topology,
                                                  /*row_cache_capacity=*/4));
  expect_identical(reference, CatalogSolver(rows, CatalogOptions{}).solve());

  const CatalogSpec implicit = make_synthetic_catalog(
      synth, seed,
      std::make_shared<fap::net::HierarchicalCostProvider>(tiered.spec));
  expect_identical(reference,
                   CatalogSolver(implicit, CatalogOptions{}).solve());

  // Provider-backed solves stay jobs-invariant too (the row cache is
  // shared across workers; single-flight keeps the bytes deterministic).
  CatalogOptions parallel;
  parallel.jobs = 4;
  expect_identical(reference, CatalogSolver(rows, parallel).solve());
}

TEST(CatalogSpecTest, ProviderOverloadValidatesNodeCount) {
  SyntheticCatalogOptions synth;
  synth.objects = 8;
  synth.nodes = 6;
  const fap::net::Topology ring = fap::net::make_ring(5, 1.0);  // wrong size
  EXPECT_THROW(
      make_synthetic_catalog(synth, 3,
                             std::make_shared<fap::net::RowCostProvider>(ring)),
      PreconditionError);
}

TEST(CatalogSolver, ValidatesSpecAndOptions) {
  SyntheticCatalogOptions synth;
  synth.objects = 4;
  synth.nodes = 4;
  const CatalogSpec good = make_synthetic_catalog(synth, 1);
  EXPECT_NO_THROW(CatalogSolver(good, CatalogOptions{}));

  CatalogSpec bad = good;
  bad.home.back() = 9;  // out of range
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.rate.pop_back();  // SoA size mismatch
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.locality = 1.5;
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  for (double& cap : bad.node_capacity) {
    cap = 0.1;  // cannot hold the catalog
  }
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.comm = nullptr;
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = good;
  bad.comm = std::make_shared<fap::net::RowCostProvider>(
      fap::net::make_ring(5, 1.0));  // 5 nodes, the spec has 4
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);

  // Under a linearized delay model the stability check is skipped, so
  // an infinite k or object rate must fail here and not inside solve().
  CatalogSpec linearized = good;
  linearized.delay = fap::queueing::DelayModel::mm1(0.95);
  EXPECT_NO_THROW(CatalogSolver(linearized, CatalogOptions{}));
  bad = linearized;
  bad.k = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);
  bad = linearized;
  bad.rate.front() = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CatalogSolver(bad, CatalogOptions{}), PreconditionError);

  CatalogOptions options;
  options.batch_width = 0;
  EXPECT_THROW(CatalogSolver(good, options), PreconditionError);

  // Invalid inner options fail at construction even when no object would
  // reach an inner solve: this K = 1 slack catalog's one start, at its
  // home with a light delay weight, is certified.
  synth.objects = 1;
  synth.headroom = 4.0;  // every node can hold the whole object
  synth.locality = 1.0;
  synth.k = 0.01;
  const CatalogSpec single = make_synthetic_catalog(synth, 1);
  double certified = 0.0;
  std::size_t batches = 0;
  solve_counting_certified(single, CatalogOptions{}, certified, batches);
  ASSERT_EQ(certified, 1.0);
  CatalogOptions invalid[5];
  invalid[0].inner.alpha = 0.0;
  invalid[1].inner.alpha = -0.3;
  invalid[2].inner.epsilon = 0.0;
  invalid[3].inner.max_iterations = 0;
  invalid[4].inner.record_trace = true;
  for (const CatalogOptions& bad_options : invalid) {
    EXPECT_THROW(CatalogSolver(single, bad_options), PreconditionError);
  }

  // An unreachable node makes the object's priced access cost there
  // infinite. Such a start is never certified: its inner solve runs and
  // rejects it, so the solve throws.
  const std::size_t n = single.node_count();
  fap::net::CostMatrix unreachable(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      unreachable.set_cost(i, j, single.comm->cost(i, j));
    }
  }
  const std::size_t home = single.home.front();
  unreachable.set_cost(home, (home + 1) % n,
                       std::numeric_limits<double>::infinity());
  CatalogSpec broken = single;
  broken.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(std::move(unreachable)));
  EXPECT_THROW(CatalogSolver(broken, CatalogOptions{}).solve(),
               PreconditionError);
}

}  // namespace
