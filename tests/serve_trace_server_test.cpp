// Tests for trace-driven serving (serve/trace_server.hpp): generator
// determinism and distribution mechanics, mode equivalences, migration
// completion, and the headline acceptance property — under popularity
// drift, online reallocation beats both the static placement and an LRU
// cache baseline on mean and tail delay. Golden pins fix the LRU policy's
// results bit for bit, and serve()'s counters reach sweep metrics.
#include "serve/trace_server.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "net/generators.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sweep.hpp"
#include "util/contracts.hpp"

namespace {

using fap::serve::FlashCrowd;
using fap::serve::ServeMode;
using fap::serve::TraceGenerator;
using fap::serve::TraceRequest;
using fap::serve::TraceServeOptions;
using fap::serve::TraceServeResult;
using fap::serve::TraceServer;
using fap::serve::TraceWorkload;

TraceWorkload small_workload() {
  TraceWorkload workload;
  workload.records = 2000;
  workload.total_rate = 2.4;  // 60% of 4 nodes at mu = 1
  workload.zipf_s = 0.9;
  workload.epoch_requests = 4096;
  workload.seed = 42;
  return workload;
}

TEST(TraceGenerator, EpochsAreSizedAndStrictlyOrdered) {
  TraceGenerator generator(small_workload(), 4);
  double last = 0.0;
  std::size_t total = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<TraceRequest>& batch = generator.next_epoch(100000);
    ASSERT_EQ(batch.size(), 4096u);
    for (const TraceRequest& request : batch) {
      EXPECT_GT(request.time, last);
      last = request.time;
      EXPECT_LT(request.origin, 4u);
      EXPECT_LT(request.record, 2000u);
      ++total;
    }
  }
  // A partial epoch when fewer requests remain.
  EXPECT_EQ(generator.next_epoch(10).size(), 10u);
  EXPECT_EQ(total, 3u * 4096u);
}

TEST(TraceGenerator, SameSeedSameTrace) {
  TraceGenerator a(small_workload(), 4);
  TraceGenerator b(small_workload(), 4);
  for (int epoch = 0; epoch < 2; ++epoch) {
    const std::vector<TraceRequest>& ba = a.next_epoch(4096);
    const std::vector<TraceRequest>& bb = b.next_epoch(4096);
    ASSERT_EQ(ba.size(), bb.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
      ASSERT_EQ(ba[i].time, bb[i].time);
      ASSERT_EQ(ba[i].origin, bb[i].origin);
      ASSERT_EQ(ba[i].record, bb[i].record);
      ASSERT_EQ(ba[i].update, bb[i].update);
    }
  }
}

TEST(TraceGenerator, PopularityIsNormalizedAndDriftRotatesIt) {
  TraceWorkload workload = small_workload();
  workload.drift_rate = 1.0;  // one record rank per unit time
  TraceGenerator generator(workload, 4);
  const std::vector<double> p0 = generator.popularity();
  double sum = 0.0;
  for (const double p : p0) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Record 0 is the rank-0 (hottest) record at t = 0.
  EXPECT_GT(p0[0], p0[1]);

  // Advance far enough that the rank shift is large, then check the
  // rotation: record r now carries the base mass of rank (r + shift).
  // Popularity is refreshed at each epoch's START, so the shift in force
  // after the last call derives from now() BEFORE that call.
  for (int epoch = 0; epoch < 7; ++epoch) {
    generator.next_epoch(4096);
  }
  const double refresh_time = generator.now();
  generator.next_epoch(4096);
  const std::size_t shift =
      static_cast<std::size_t>(workload.drift_rate * refresh_time) % 2000;
  ASSERT_GT(shift, 100u);
  const std::vector<double>& pt = generator.popularity();
  EXPECT_DOUBLE_EQ(pt[(2000 - shift) % 2000], p0[0]);
  EXPECT_LT(pt[0], p0[0]);  // record 0 demoted by `shift` ranks
}

TEST(TraceGenerator, FlashCrowdBoostsItsRecordsWhileActive) {
  TraceWorkload workload = small_workload();
  FlashCrowd crowd;
  crowd.start = 0.0;
  crowd.end = 1e18;  // active from the first epoch on
  crowd.first_record = 1500;
  crowd.last_record = 1600;
  crowd.boost = 50.0;
  workload.flash_crowds.push_back(crowd);
  TraceGenerator boosted(workload, 4);
  TraceGenerator plain(small_workload(), 4);
  boosted.next_epoch(1);
  plain.next_epoch(1);
  const std::vector<double>& pb = boosted.popularity();
  const std::vector<double>& pp = plain.popularity();
  // Boosted records gain mass, everything else loses it (renormalization).
  EXPECT_GT(pb[1500], pp[1500] * 10.0);
  EXPECT_LT(pb[0], pp[0]);
  double sum = 0.0;
  for (const double p : pb) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(TraceGenerator, RejectsBadWorkloads) {
  TraceWorkload bad = small_workload();
  bad.total_rate = 0.0;
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.update_fraction = 1.5;
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.origin_mix = {0.5, 0.5};  // 2 weights, 4 nodes
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.flash_crowds.push_back({0.0, 1.0, 1900, 2100, 10.0});
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  bad = small_workload();
  bad.total_rate = inf;  // every request would land at t = 0
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
  bad = small_workload();
  bad.drift_rate = inf;  // the rank shift would be a NaN cast to size_t
  EXPECT_THROW(TraceGenerator(bad, 4), fap::util::PreconditionError);
}

TEST(TraceServer, RejectsNonFiniteHopLatency) {
  // Served, it would report a NaN mean delay and an infinite span.
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceServeOptions options;
  options.hop_latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(TraceServer(ring, small_workload(), options),
               fap::util::PreconditionError);
}

TEST(TraceServer, ServeIsDeterministic) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.02;
  workload.update_fraction = 0.15;
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.25;
  const TraceServeResult a = TraceServer(ring, workload, options).serve(40000);
  const TraceServeResult b = TraceServer(ring, workload, options).serve(40000);
  ASSERT_EQ(a.requests_injected, 40000u);
  ASSERT_EQ(a.completions, b.completions);
  ASSERT_EQ(a.delay.count(), b.delay.count());
  ASSERT_EQ(a.delay.mean(), b.delay.mean());
  ASSERT_EQ(a.delay_hist.quantile(0.99), b.delay_hist.quantile(0.99));
  ASSERT_EQ(a.comm.mean(), b.comm.mean());
  ASSERT_EQ(a.reallocations, b.reallocations);
  ASSERT_EQ(a.migrated_records, b.migrated_records);
  ASSERT_EQ(a.stalled_requests, b.stalled_requests);
  ASSERT_EQ(a.span, b.span);
}

// Without drift the hysteresis test never fires (the threshold sits above
// the node-share sampling-noise floor), so online mode routes every
// request exactly like static mode: same completions, same histograms.
// (Means are merged from per-window accumulators in online mode, so they
// agree to rounding, not bitwise.)
TEST(TraceServer, WithoutDriftOnlineEqualsStatic) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  const TraceWorkload workload = small_workload();  // drift_rate = 0
  TraceServeOptions options;
  options.estimation_epochs = 2;
  // Per-node access shares over an 8192-request window have sampling
  // noise of ~0.01 TV; keep the threshold well above it so noise alone
  // cannot trigger a re-solve.
  options.hysteresis = 0.05;
  options.mode = ServeMode::kStatic;
  const fap::net::Topology ring2 = fap::net::make_ring(4);
  TraceServer static_server(ring, workload, options);
  options.mode = ServeMode::kOnline;
  TraceServer online_server(ring2, workload, options);
  const TraceServeResult s = static_server.serve(40000);
  const TraceServeResult o = online_server.serve(40000);
  EXPECT_EQ(o.reallocations, 0u);
  EXPECT_EQ(o.migrated_records, 0u);
  EXPECT_EQ(o.stalled_requests, 0u);
  // Completion-time window attribution: nothing is dropped in either
  // mode, and the identically-routed runs count identical completions.
  ASSERT_EQ(s.completions, s.requests_injected);
  ASSERT_EQ(o.completions, s.completions);
  ASSERT_EQ(o.delay.count(), s.delay.count());
  // Histogram quantiles are computed from integer bucket counts, so they
  // match bitwise; the means are merged from per-window accumulators in
  // online mode and agree only to accumulation rounding.
  ASSERT_EQ(o.delay_hist.quantile(0.5), s.delay_hist.quantile(0.5));
  ASSERT_EQ(o.delay_hist.quantile(0.999), s.delay_hist.quantile(0.999));
  EXPECT_NEAR(o.delay.mean(), s.delay.mean(), 1e-9 * s.delay.mean());
  EXPECT_NEAR(o.comm.mean(), s.comm.mean(), 1e-9 * s.comm.mean());
  EXPECT_EQ(online_server.current_layout().node_of(0),
            online_server.initial_layout().node_of(0));
}

// The headline acceptance property: under sustained popularity drift the
// online reallocation mode beats BOTH the static placement and the LRU
// cache baseline on mean and p99 delay.
TEST(TraceServer, UnderDriftOnlineBeatsStaticAndLruOnMeanAndTail) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  // The rank rotation displaces ~17 records (~0.1 TV) per estimation
  // window — fast enough that the t = 0 placement degrades badly over
  // the run's ~500-record total shift, slow enough that per-window
  // re-solves can track it.
  workload.drift_rate = 0.005;
  workload.update_fraction = 0.2;
  TraceServeOptions options;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 1;
  options.migration_bandwidth = 2000.0;

  auto run = [&](ServeMode mode) {
    TraceServeOptions o = options;
    o.mode = mode;
    return TraceServer(ring, workload, o).serve(240000);
  };
  const TraceServeResult st = run(ServeMode::kStatic);
  const TraceServeResult on = run(ServeMode::kOnline);
  const TraceServeResult lru = run(ServeMode::kLru);

  // No mode ever drops a request from its statistics.
  EXPECT_EQ(st.completions, st.requests_injected);
  EXPECT_EQ(on.completions, on.requests_injected);
  EXPECT_EQ(lru.completions, lru.requests_injected);

  EXPECT_GE(on.reallocations, 2u);
  EXPECT_GT(on.migrated_records, 0u);
  EXPECT_GT(lru.cache_hits, 0u);
  EXPECT_GT(lru.cache_invalidations, 0u);

  EXPECT_LT(on.delay.mean(), st.delay.mean());
  EXPECT_LT(on.delay.mean(), lru.delay.mean());
  EXPECT_LT(on.delay_hist.quantile(0.99), st.delay_hist.quantile(0.99));
  EXPECT_LT(on.delay_hist.quantile(0.99), lru.delay_hist.quantile(0.99));
}

// A forced quick migration: reallocation moves the deployed layout, and
// requests landing inside the in-flight wave are stalled and counted.
TEST(TraceServer, MigrationMovesTheLayoutAndAccountsStalls) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.1;  // fast drift forces early re-solves
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 0;
  // Slow migration: waves stay in flight long enough for live requests
  // to land inside them.
  options.migration_bandwidth = 10.0;
  TraceServer server(ring, workload, options);
  const TraceServeResult result = server.serve(120000);
  ASSERT_GE(result.reallocations, 1u);
  EXPECT_GT(result.migrated_records, 0u);
  EXPECT_GE(result.migration_waves, 1u);
  EXPECT_GT(result.stalled_requests, 0u);
  // The deployed layout actually moved off the initial one.
  const fap::fs::FragmentMap& initial = server.initial_layout();
  const fap::fs::FragmentMap& current = server.current_layout();
  ASSERT_EQ(current.record_count(), initial.record_count());
  bool moved = false;
  for (std::size_t r = 0; r < current.record_count() && !moved; ++r) {
    moved = current.node_of(r) != initial.node_of(r);
  }
  EXPECT_TRUE(moved);
}

// Every injected request is eventually served: the passive modes keep a
// single stats window for the whole run, so completions match injections
// EXACTLY and nothing is ever counted as failed.
TEST(TraceServer, AccountingIsConsistent) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceServeOptions options;
  options.mode = ServeMode::kLru;
  options.estimation_epochs = 2;
  TraceServer server(ring, small_workload(), options);
  const TraceServeResult result = server.serve(40000);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completions, result.requests_injected);
  EXPECT_EQ(result.delay.count(), result.completions);
  EXPECT_GT(result.hit_rate(), 0.0);
  EXPECT_GT(result.external_traffic(), 0.0);
  // Cache bookkeeping only counts remote-home reads.
  EXPECT_GT(result.cache_hits + result.cache_misses, 0u);
}

// Golden pins of the LRU policy: the counters, the delay quantiles and
// the summed communication cost of fixed runs, recorded from the original
// per-node list + hash-map cache. Any cache layout must route every
// request identically, so every value matches exactly (floating-point
// values by bit pattern). The 70- and 130-node rings span two and three
// 64-bit words of a per-record node mask; the last pin caches one record
// per node, so every miss evicts.
struct LruPin {
  std::size_t nodes;
  std::size_t records;
  double cache_fraction;
  std::size_t hits;
  std::size_t misses;
  std::size_t invalidations;
  std::size_t served_at_origin;
  std::uint64_t p50_bits;
  std::uint64_t p99_bits;
  std::uint64_t comm_sum_bits;
};

TraceServeResult serve_lru_pin(const LruPin& pin) {
  const fap::net::Topology ring = fap::net::make_ring(pin.nodes);
  TraceWorkload workload = small_workload();
  workload.records = pin.records;
  workload.total_rate = 0.6 * static_cast<double>(pin.nodes);
  workload.update_fraction = 0.2;
  TraceServeOptions options;
  options.mode = ServeMode::kLru;
  options.cache_fraction = pin.cache_fraction;
  return TraceServer(ring, workload, options).serve(40000);
}

void expect_lru_pin(const LruPin& pin) {
  const TraceServeResult result = serve_lru_pin(pin);
  EXPECT_EQ(result.cache_hits, pin.hits);
  EXPECT_EQ(result.cache_misses, pin.misses);
  EXPECT_EQ(result.cache_invalidations, pin.invalidations);
  EXPECT_EQ(result.served_at_origin, pin.served_at_origin);
  EXPECT_EQ(result.completions, 40000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.delay_hist.quantile(0.5)),
            pin.p50_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.delay_hist.quantile(0.99)),
            pin.p99_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.comm.sum()),
            pin.comm_sum_bits);
}

TEST(TraceServer, LruGoldenPinFourNodes) {
  expect_lru_pin({4, 2000, 0.05, 6642, 17329, 6660, 16609,
                  0x3ffde2ea0e9d05acULL, 0x402ad4b4efd71b47ULL,
                  0x40de6e3fffffff92ULL});
}

TEST(TraceServer, LruGoldenPinSeventyNodes) {
  expect_lru_pin({70, 4000, 0.05, 1215, 30251, 21966, 1773,
                  0x4002ce1c6897bdccULL, 0x4098ce86e5c6ebc4ULL,
                  0x4124a5f20000000aULL});
}

TEST(TraceServer, LruGoldenPinCapacityOne) {
  expect_lru_pin({130, 3000, 0.0005, 154, 31501, 5086, 465,
                  0x40064d241487aaa0ULL, 0x40a1223a53d7bc96ULL,
                  0x4133b026ffffffe6ULL});
}

// Golden pins of the requests whose arrivals leave injection order: the
// migration-stalled reads of kOnline and the per-hop transit of kStatic
// with hop latency. Recorded from the engine that gave every injected
// request a job slot and a heap event at injection; pinned on the same
// fields as the LRU pins, plus the online adaptation counters.
struct ServePin {
  std::size_t served_at_origin;
  std::size_t completions;
  std::uint64_t p50_bits;
  std::uint64_t p99_bits;
  std::uint64_t comm_sum_bits;
};

void expect_serve_pin(const TraceServeResult& result, const ServePin& pin) {
  EXPECT_EQ(result.cache_hits, 0u);
  EXPECT_EQ(result.cache_misses, 0u);
  EXPECT_EQ(result.cache_invalidations, 0u);
  EXPECT_EQ(result.served_at_origin, pin.served_at_origin);
  EXPECT_EQ(result.completions, pin.completions);
  EXPECT_EQ(result.completions, result.requests_injected);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.delay_hist.quantile(0.5)),
            pin.p50_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.delay_hist.quantile(0.99)),
            pin.p99_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.comm.sum()),
            pin.comm_sum_bits);
}

TEST(TraceServer, OnlineGoldenPinWithStalls) {
  // The configuration of MigrationMovesTheLayoutAndAccountsStalls.
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.1;
  TraceServeOptions options;
  options.mode = ServeMode::kOnline;
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  options.cooldown_windows = 0;
  options.migration_bandwidth = 10.0;
  const TraceServeResult result = TraceServer(ring, workload, options)
                                      .serve(120000);
  EXPECT_EQ(result.reallocations, 14u);
  EXPECT_EQ(result.migrated_records, 14344u);
  EXPECT_EQ(result.stalled_requests, 1892u);
  expect_serve_pin(result, {30092, 120000, 0x409ea6813d26d7d0ULL,
                            0x40ccccb9a64c20bfULL, 0x40fd472000000003ULL});
}

TEST(TraceServer, StaticGoldenPinWithHopLatency) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceServeOptions options;
  options.mode = ServeMode::kStatic;
  options.hop_latency = 0.25;
  const TraceServeResult result =
      TraceServer(ring, small_workload(), options).serve(40000);
  expect_serve_pin(result, {9967, 40000, 0x40021c9874489dc8ULL,
                            0x40278f552ac1ee51ULL, 0x40e387c000000013ULL});
}

// serve() reports its counters through runtime::add_task_metric, so a
// metered sweep task's JSONL record carries them under the benchmark's
// per-layer names.
TEST(TraceServer, ReportsCountersToTheSweepMetricsRecord) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  TraceWorkload workload = small_workload();
  workload.drift_rate = 0.1;
  workload.update_fraction = 0.2;
  const std::string path = testing::TempDir() + "/serve_metrics.jsonl";
  for (const ServeMode mode : {ServeMode::kLru, ServeMode::kOnline}) {
    TraceServeOptions options;
    options.mode = mode;
    options.estimation_epochs = 2;
    options.hysteresis = 0.05;
    options.migration_bandwidth = 10.0;
    TraceServeResult result;
    {
      fap::runtime::MetricsSink sink(path);
      fap::runtime::SweepOptions sweep;
      sweep.metrics = &sink;
      sweep.run_id = "serve_metrics_test";
      fap::runtime::run_sweep(1, sweep, [&](std::size_t, std::uint64_t) {
        result = TraceServer(ring, workload, options).serve(40000);
      });
    }
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const auto value_of = [&](const std::string& name) {
      const std::string key = "\"" + name + "\":";
      const std::size_t at = line.find(key);
      EXPECT_NE(at, std::string::npos) << name << " missing from " << line;
      return at == std::string::npos ? -1.0
                                     : std::stod(line.substr(at + key.size()));
    };
    const auto as_double = [](std::size_t count) {
      return static_cast<double>(count);
    };
    EXPECT_EQ(value_of("sim.des.completions"), as_double(result.completions));
    EXPECT_EQ(value_of("serve.cache.hits"), as_double(result.cache_hits));
    EXPECT_EQ(value_of("serve.cache.misses"), as_double(result.cache_misses));
    EXPECT_EQ(value_of("serve.cache.invalidations"),
              as_double(result.cache_invalidations));
    EXPECT_EQ(value_of("serve.online.reallocations"),
              as_double(result.reallocations));
    EXPECT_EQ(value_of("fs.migration.records"),
              as_double(result.migrated_records));
    EXPECT_EQ(value_of("fs.migration.stalled_requests"),
              as_double(result.stalled_requests));
    if (mode == ServeMode::kLru) {
      EXPECT_GT(result.cache_hits, 0u);
      EXPECT_GT(result.cache_invalidations, 0u);
    } else {
      EXPECT_GT(result.reallocations, 0u);
      EXPECT_GT(result.stalled_requests, 0u);
    }
  }
}

}  // namespace
