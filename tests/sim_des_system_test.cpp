// Tests for the incremental simulation engine: windowing semantics,
// mid-run rewiring, consistency with the batch run_des wrapper, and a
// golden pin of the open-loop (injected-access) path.
#include "sim/des_system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "queueing/delay.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace core = fap::core;
namespace sim = fap::sim;

sim::DesConfig paper_config(const std::vector<double>& x) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::DesConfig config = sim::des_config_for(model, x);
  config.seed = 321;
  return config;
}

TEST(DesSystem, AdvanceUntilMovesTheClockExactly) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  system.advance_until(123.5);
  EXPECT_DOUBLE_EQ(system.now(), 123.5);
  EXPECT_THROW(system.advance_until(100.0), fap::util::PreconditionError);
}

TEST(DesSystem, AdvanceCompletionsCountsCompletions) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.reset_window();
  const std::size_t made = system.advance_completions(5000);
  EXPECT_EQ(made, 5000u);
  // All completions after the window opened at t=0 are measured.
  EXPECT_EQ(system.window().completions, 5000u);
}

TEST(DesSystem, WindowExcludesPreWindowArrivals) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.advance_until(200.0);
  system.reset_window();
  system.advance_completions(2000);
  // Accesses that arrived before t=200 but completed after must not be
  // measured: every measured sojourn is consistent with a post-200
  // arrival (weak check: window has fewer completions than advanced).
  EXPECT_LE(system.window().completions, 2000u);
  EXPECT_GT(system.window().completions, 1500u);
}

TEST(DesSystem, CompletionAttributedWindowsPartitionAllCompletions) {
  // With window_by_completion, a reset never loses the in-flight tail:
  // each completion lands in exactly the window it departs in, so the
  // window counts sum to the completions advanced — the attribution rule
  // cumulative trace-serving statistics rely on.
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.window_by_completion = true;
  sim::DesSystem system(std::move(config));
  system.reset_window();
  std::size_t advanced = 0;
  std::size_t counted = 0;
  for (int w = 0; w < 4; ++w) {
    advanced += system.advance_completions(1500);
    counted += system.window().completions;
    system.reset_window();
  }
  EXPECT_EQ(advanced, 4u * 1500u);
  EXPECT_EQ(counted, advanced);
}

TEST(DesSystem, WindowStatsMatchTheory) {
  sim::DesConfig config;
  config.lambda = {0.75};
  config.mu = {1.5};
  config.routing = {{1.0}};
  config.comm_cost = {{0.0}};
  config.seed = 99;
  sim::DesSystem system(config);
  system.advance_until(500.0);
  system.reset_window();
  system.advance_completions(150000);
  const sim::WindowStats& window = system.window();
  EXPECT_NEAR(window.sojourn.mean(),
              fap::queueing::mm1_sojourn_time(0.75, 1.5),
              0.06 * fap::queueing::mm1_sojourn_time(0.75, 1.5));
  EXPECT_NEAR(window.node[0].utilization, 0.5, 0.02);
  EXPECT_NEAR(window.node[0].observed_arrival_rate, 0.75, 0.03);
}

TEST(DesSystem, SetRoutingRedirectsTraffic) {
  // Start with everything served at node 0; rewire to node 2 mid-run and
  // verify the new window's arrivals follow.
  sim::DesSystem system(paper_config({1.0, 0.0, 0.0, 0.0}));
  system.advance_until(500.0);
  system.reset_window();
  system.advance_completions(20000);
  EXPECT_GT(system.window().node[0].observed_arrival_rate, 0.9);

  std::vector<std::vector<double>> new_routing(
      4, std::vector<double>{0.0, 0.0, 1.0, 0.0});
  system.set_routing(new_routing);
  system.advance_until(system.now() + 100.0);  // drain the old regime
  system.reset_window();
  system.advance_completions(20000);
  EXPECT_GT(system.window().node[2].observed_arrival_rate, 0.9);
  EXPECT_LT(system.window().node[0].observed_arrival_rate, 0.01);
}

TEST(DesSystem, RewiringReducesDelayWhenLoadIsSpread) {
  // Concentrated allocation queues badly; spreading it mid-run must
  // reduce the measured sojourn in the next window.
  sim::DesSystem system(paper_config({0.0, 0.0, 0.0, 1.0}));
  system.advance_until(300.0);
  system.reset_window();
  system.advance_completions(40000);
  const double concentrated_sojourn = system.window().sojourn.mean();

  const core::SingleFileModel model(core::make_paper_ring_problem());
  system.set_routing(
      sim::des_config_for(model, {0.25, 0.25, 0.25, 0.25}).routing);
  system.advance_until(system.now() + 200.0);
  system.reset_window();
  system.advance_completions(40000);
  const double spread_sojourn = system.window().sojourn.mean();

  // Theory: 1/(μ-λ) = 2.0 vs 1/(μ-λ/4) = 0.8.
  EXPECT_GT(concentrated_sojourn, 1.7);
  EXPECT_LT(spread_sojourn, 1.0);
}

TEST(DesSystem, UtilizationIncludesInProgressService) {
  // A deterministic heavy service keeps the server busy; utilization must
  // count the in-progress service at window inspection time.
  sim::DesConfig config;
  config.lambda = {0.9};
  config.mu = {1.0};
  config.routing = {{1.0}};
  config.comm_cost = {{0.0}};
  config.seed = 5;
  sim::DesSystem system(config);
  system.advance_until(1000.0);
  system.reset_window();
  system.advance_until(2000.0);
  EXPECT_NEAR(system.window().node[0].utilization, 0.9, 0.05);
}

TEST(DesSystem, LogRespectsWindows) {
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.record_log = true;
  sim::DesSystem system(config);
  system.advance_until(100.0);
  system.reset_window();
  system.advance_completions(500);
  const std::size_t first_window = system.window().log.size();
  EXPECT_GT(first_window, 0u);
  system.reset_window();
  EXPECT_TRUE(system.window().log.empty());
}

TEST(DesSystem, MoveSemantics) {
  sim::DesSystem a(paper_config({0.25, 0.25, 0.25, 0.25}));
  a.advance_until(50.0);
  sim::DesSystem b(std::move(a));
  EXPECT_DOUBLE_EQ(b.now(), 50.0);
  b.advance_until(60.0);
  EXPECT_DOUBLE_EQ(b.now(), 60.0);
}

TEST(DesSystem, RejectsBadRewiring) {
  sim::DesSystem system(paper_config({0.25, 0.25, 0.25, 0.25}));
  EXPECT_THROW(system.set_routing({{1.0}}), fap::util::PreconditionError);
  EXPECT_THROW(system.set_routing(std::vector<std::vector<double>>(
                   4, std::vector<double>{0.5, 0.0, 0.0, 0.0})),
               fap::util::PreconditionError);
  // Only the last row is malformed; the rows before it must not deploy.
  std::vector<std::vector<double>> last_row_bad(
      4, std::vector<double>{0.0, 0.0, 1.0, 0.0});
  last_row_bad[3] = {0.5, 0.0, 0.0, 0.0};
  EXPECT_THROW(system.set_routing(last_row_bad),
               fap::util::PreconditionError);
  sim::DesSystem untouched(paper_config({0.25, 0.25, 0.25, 0.25}));
  system.advance_completions(2000);
  untouched.advance_completions(2000);
  EXPECT_EQ(system.now(), untouched.now());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(system.window().node[i].arrivals,
              untouched.window().node[i].arrivals)
        << "node " << i;
  }
  EXPECT_EQ(system.window().comm_cost.sum(),
            untouched.window().comm_cost.sum());
  // An engine in which no node generates needs no matrices, but a routing
  // mix cannot be deployed without the comm costs that go with it.
  sim::DesConfig open_loop;
  open_loop.open_loop = true;
  open_loop.lambda = {0.0};
  open_loop.mu = {1.0};
  sim::DesSystem matrix_free(open_loop);
  EXPECT_THROW(matrix_free.set_routing({{1.0}}), fap::util::PreconditionError);
}

TEST(DesSystem, DefaultEventBudgetMatchesHistoricalValue) {
  // The config knobs replaced a hard-coded `1000 * count + 1000000`
  // budget; the defaults must preserve it so existing runs are unchanged.
  const sim::DesConfig config;
  EXPECT_EQ(config.event_budget_per_completion, 1000u);
  EXPECT_EQ(config.event_budget_floor, 1000u * 1000u);
}

TEST(DesSystem, ExhaustedEventBudgetFailsLoudly) {
  // A tiny configured budget trips quickly — and loudly, via
  // InvariantError — when no completions can be made.
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.event_budget_per_completion = 2;
  config.event_budget_floor = 100;
  sim::DesSystem system(config);
  system.advance_until(50.0);
  for (std::size_t i = 0; i < 4; ++i) {
    system.set_node_failed(i, true);
  }
  EXPECT_THROW(system.advance_completions(5), fap::util::InvariantError);
}

TEST(DesSystem, GenerousEventBudgetIsNotTrippedByNormalRuns) {
  // Shrinking the budget to just above what a healthy run needs must not
  // fire: the guard only catches genuine non-progress. A completion takes
  // a handful of events (generate + arrive + departure), far under 50.
  sim::DesConfig config = paper_config({0.25, 0.25, 0.25, 0.25});
  config.event_budget_per_completion = 50;
  config.event_budget_floor = 100;
  sim::DesSystem system(config);
  system.advance_until(50.0);
  EXPECT_EQ(system.advance_completions(2000), 2000u);
}

// An open-loop engine on a 4-ring: no node generates traffic, nodes have
// 1-3 servers, every hop costs 0.25 of transit (so injected accesses
// reach their targets out of injection order), the access log is on and
// windows attribute accesses by completion time.
sim::DesConfig open_loop_ring_config() {
  constexpr std::size_t kNodes = 4;
  sim::DesConfig config;
  config.open_loop = true;
  config.lambda.assign(kNodes, 0.0);
  config.mu = {1.0, 0.8, 1.2, 0.5};
  config.servers_per_node = {1, 2, 1, 3};
  config.routing.assign(kNodes, std::vector<double>(kNodes, 0.0));
  config.route_hops = fap::net::route_hop_counts(fap::net::make_ring(kNodes));
  config.comm_cost.assign(kNodes, std::vector<double>(kNodes, 0.0));
  for (std::size_t j = 0; j < kNodes; ++j) {
    config.routing[j][j] = 1.0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      config.comm_cost[j][i] = static_cast<double>(config.route_hops[j][i]);
    }
  }
  config.hop_latency = 0.25;
  config.record_log = true;
  config.window_by_completion = true;
  config.seed = 2024;
  return config;
}

/// `config` without the routing and comm-cost matrices, which an engine
/// in which no node generates never reads.
sim::DesConfig without_matrices(sim::DesConfig config) {
  config.routing.clear();
  config.comm_cost.clear();
  return config;
}

/// Injects accesses numbered [first, last) at increasing times drawn from
/// `script` (rate 3, about 57% of the ring's service capacity), advancing
/// the engine to the latest injection time after every 256th, the way
/// trace serving feeds it. Every 7th access shares its predecessor's time
/// exactly and every 50th carries a migration-like stall. Returns the
/// time of the last injection.
double inject_script(sim::DesSystem& system, fap::util::Rng& script,
                     std::size_t first, std::size_t last, double time) {
  for (std::size_t i = first; i < last; ++i) {
    if (i % 7 != 0) {
      time += script.exponential(3.0);
    }
    const std::size_t source = script.uniform_index(4);
    const std::size_t target = script.uniform_index(4);
    const double comm = script.uniform(0.0, 2.0);
    const double stall = i % 50 == 49 ? script.uniform(0.0, 3.0) : 0.0;
    system.inject_access(time, source, target, comm, stall);
    if (i % 256 == 255) {
      system.advance_until(time);
    }
  }
  return time;
}

void drain(sim::DesSystem& system) {
  while (system.advance_completions(4096) > 0) {
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// FNV-1a over every field of every logged access, doubles by bit pattern.
std::uint64_t log_digest(const std::vector<sim::AccessObservation>& log) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const sim::AccessObservation& access : log) {
    mix(access.source);
    mix(access.target);
    mix(bits(access.arrival_time));
    mix(bits(access.service_start));
    mix(bits(access.departure_time));
    mix(bits(access.comm_cost));
  }
  return hash;
}

struct WindowPin {
  std::size_t completions;
  std::size_t failed_accesses;
  std::array<std::size_t, 4> arrivals;
  std::uint64_t comm_sum_bits;
  std::uint64_t sojourn_mean_bits;
  std::uint64_t response_mean_bits;
  std::uint64_t p50_bits;
  std::uint64_t p99_bits;
  std::uint64_t log_digest;
};

void expect_window_pin(const sim::WindowStats& window, const WindowPin& pin) {
  EXPECT_EQ(window.completions, pin.completions);
  EXPECT_EQ(window.failed_accesses, pin.failed_accesses);
  ASSERT_EQ(window.node.size(), pin.arrivals.size());
  for (std::size_t i = 0; i < pin.arrivals.size(); ++i) {
    EXPECT_EQ(window.node[i].arrivals, pin.arrivals[i]) << "node " << i;
  }
  EXPECT_EQ(bits(window.comm_cost.sum()), pin.comm_sum_bits);
  EXPECT_EQ(bits(window.sojourn.mean()), pin.sojourn_mean_bits);
  EXPECT_EQ(bits(window.response_time.mean()), pin.response_mean_bits);
  EXPECT_EQ(bits(window.response_hist.quantile(0.5)), pin.p50_bits);
  EXPECT_EQ(bits(window.response_hist.quantile(0.99)), pin.p99_bits);
  EXPECT_EQ(log_digest(window.log), pin.log_digest);
}

// Golden pin of the open-loop path, recorded from the engine that gave
// every injected access a job slot and a heap event at injection. Equal
// times, stalls and per-hop transit mix in-order and out-of-order
// arrivals; node 2 fails with accesses queued and in flight towards it,
// then recovers; the window is harvested and reset halfway. The
// (time, seq) event order fixes every statistic, so any engine layout
// must reproduce these values bit for bit — with the config's routing and
// comm-cost matrices and without them.
TEST(DesSystem, OpenLoopGoldenPin) {
  constexpr std::size_t kAccesses = 20000;
  for (const sim::DesConfig& config :
       {open_loop_ring_config(), without_matrices(open_loop_ring_config())}) {
    SCOPED_TRACE(config.routing.empty() ? "without matrices"
                                        : "with matrices");
    sim::DesSystem system(config);
    fap::util::Rng script(77);
    double time = inject_script(system, script, 0, 6144, 0.0);
    system.set_node_failed(2, true);
    time = inject_script(system, script, 6144, 7168, time);
    system.set_node_failed(2, false);
    time = inject_script(system, script, 7168, 10240, time);
    const sim::WindowStats& first = system.window();
    const std::size_t first_served =
        first.completions + first.failed_accesses;
    expect_window_pin(first, {9941, 267, {2535, 2504, 2384, 2551},
                              0x40c3a14d2b0d0846ULL, 0x400be9f953ae051bULL,
                              0x4010197f454887baULL, 0x4005619de933fd62ULL,
                              0x40389e97dc3a2c8eULL, 0xd8daf4dd87e072a5ULL});
    system.reset_window();
    inject_script(system, script, 10240, kAccesses, time);
    drain(system);
    const sim::WindowStats& second = system.window();
    expect_window_pin(second, {9792, 0, {2434, 2366, 2506, 2458},
                               0x40c2f147a565dbf8ULL, 0x401014aa8c1d08c7ULL,
                               0x401237e34f2783afULL, 0x40071e9300a24c06ULL,
                               0x403a27692da90e59ULL, 0xf1ffe672915151bcULL});
    // Completion-time windows partition every injected access.
    EXPECT_EQ(first_served + second.completions + second.failed_accesses,
              kAccesses);
  }
}

TEST(DesSystem, RejectsNonFiniteOpenLoopTimes) {
  // An infinite time would drain the run to a clock of +inf, after which
  // every departure measures inf - inf = NaN.
  sim::DesSystem system(open_loop_ring_config());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using fap::util::PreconditionError;
  EXPECT_THROW(system.inject_access(inf, 0, 1, 1.0), PreconditionError);
  EXPECT_THROW(system.inject_access(nan, 0, 1, 1.0), PreconditionError);
  EXPECT_THROW(system.inject_access(1.0, 0, 1, 1.0, inf), PreconditionError);
  EXPECT_THROW(system.inject_access(1.0, 0, 1, 1.0, nan), PreconditionError);
  EXPECT_THROW(system.advance_until(inf), PreconditionError);
  EXPECT_THROW(system.advance_until(nan), PreconditionError);
  // The rejected calls left nothing behind.
  system.inject_access(1.0, 0, 1, 1.0);
  EXPECT_EQ(system.advance_completions(10), 1u);
  EXPECT_TRUE(std::isfinite(system.now()));
  EXPECT_EQ(system.window().completions, 1u);
  EXPECT_EQ(system.window().response_hist.nonfinite(), 0u);
}

void expect_same_stats(const fap::util::RunningStats& a,
                       const fap::util::RunningStats& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
}

void expect_same_window(const sim::WindowStats& a, const sim::WindowStats& b) {
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.failed_accesses, b.failed_accesses);
  expect_same_stats(a.comm_cost, b.comm_cost, "comm_cost");
  expect_same_stats(a.sojourn, b.sojourn, "sojourn");
  expect_same_stats(a.response_time, b.response_time, "response_time");
  EXPECT_EQ(a.response_hist.quantile(0.5), b.response_hist.quantile(0.5));
  EXPECT_EQ(a.response_hist.quantile(0.99), b.response_hist.quantile(0.99));
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].arrivals, b.node[i].arrivals) << "node " << i;
    EXPECT_EQ(a.node[i].busy_time, b.node[i].busy_time) << "node " << i;
  }
  EXPECT_EQ(log_digest(a.log), log_digest(b.log));
}

TEST(DesSystem, RestartDiscardsInjectedAccessesInFlight) {
  const sim::DesConfig config = open_loop_ring_config();
  sim::DesSystem recycled(config);
  fap::util::Rng leftover(5);
  const double last = inject_script(recycled, leftover, 0, 700, 0.0);
  // Long stalls keep these in flight past the clock restart() finds.
  for (std::size_t i = 0; i < 20; ++i) {
    recycled.inject_access(last, i % 4, (i + 1) % 4, 1.0, 10.0 + i);
  }
  recycled.advance_until(last + 5.0);
  const sim::WindowStats& before = recycled.window();
  ASSERT_GT(before.completions, 0u);
  ASSERT_LT(before.completions + before.failed_accesses, 720u);
  recycled.restart(config);

  sim::DesSystem fresh(config);
  for (sim::DesSystem* system : {&recycled, &fresh}) {
    fap::util::Rng script(9);
    inject_script(*system, script, 0, 3000, 0.0);
    drain(*system);
  }
  EXPECT_EQ(recycled.now(), fresh.now());
  EXPECT_EQ(recycled.window().completions, 3000u);
  expect_same_window(recycled.window(), fresh.window());
}

/// Injected accesses, served to completion, for an open-loop config; 300
/// time units of generated traffic otherwise.
void run_script(sim::DesSystem& system, const sim::DesConfig& config) {
  if (config.open_loop) {
    fap::util::Rng script(9);
    inject_script(system, script, 0, 3000, 0.0);
    drain(system);
  } else {
    system.advance_until(300.0);
  }
}

TEST(DesSystem, RestartsBetweenConfigsWithAndWithoutMatrices) {
  // A generating config builds the routing cells; an open-loop config
  // without matrices builds none. The last leg routes differently from
  // the first, so cells left over from it would show.
  sim::DesConfig generating = paper_config({0.1, 0.2, 0.3, 0.4});
  generating.record_log = true;
  const sim::DesConfig matrix_free = without_matrices(open_loop_ring_config());
  sim::DesSystem recycled(paper_config({0.25, 0.25, 0.25, 0.25}));
  recycled.advance_until(100.0);
  for (const sim::DesConfig& config : {matrix_free, generating}) {
    SCOPED_TRACE(config.open_loop ? "without matrices" : "with matrices");
    recycled.restart(config);
    sim::DesSystem fresh(config);
    run_script(recycled, config);
    run_script(fresh, config);
    EXPECT_EQ(recycled.now(), fresh.now());
    EXPECT_GT(recycled.window().completions, 0u);
    expect_same_window(recycled.window(), fresh.window());
  }
}

}  // namespace
