#include "runtime/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "sim/des.hpp"
#include "sim/des_system.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::runtime::MetricsRecord;
using fap::runtime::MetricsSink;
using fap::runtime::SweepOptions;
using fap::runtime::task_seed;

SweepOptions options_with_jobs(std::size_t jobs, std::uint64_t seed = 7) {
  SweepOptions options;
  options.jobs = jobs;
  options.base_seed = seed;
  return options;
}

// --- run_sweep as a parallel loop over indices ---------------------------

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{2},
                                  std::size_t{64}}) {
    std::vector<std::atomic<int>> visits(count);
    fap::runtime::run_sweep(
        count, options_with_jobs(3),
        [&](std::size_t i, std::uint64_t) { visits[i].fetch_add(1); });
    for (const std::atomic<int>& visit : visits) {
      EXPECT_EQ(visit.load(), 1) << "count " << count;
    }
  }
}

TEST(ParallelFor, IdleWorkerClaimsRemainingIndices) {
  // Index 0 blocks its worker until every other index has run, so the
  // loop finishes only if the second worker claims indices 1-7 itself; a
  // schedule fixed up front that queues 1-3 behind 0 on one worker fails.
  constexpr std::size_t kCount = 8;
  std::atomic<std::size_t> others_done{0};
  fap::runtime::run_sweep(
      kCount, options_with_jobs(2), [&](std::size_t i, std::uint64_t) {
        if (i != 0) {
          others_done.fetch_add(1);
          return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (others_done.load() < kCount - 1) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "indices 1-7 never ran while index 0 held its worker";
          std::this_thread::yield();
        }
      });
  EXPECT_EQ(others_done.load(), kCount - 1);
}

TEST(ParallelFor, BodiesRunConcurrentlyAcrossWorkers) {
  // Two bodies that each need the other to start before finishing can
  // only complete if the sweep genuinely runs them on distinct threads.
  std::atomic<int> arrivals{0};
  fap::runtime::run_sweep(
      2, options_with_jobs(2), [&](std::size_t, std::uint64_t) {
        arrivals.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (arrivals.load() < 2) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "bodies never overlapped; the sweep is not parallel";
          std::this_thread::yield();
        }
      });
  EXPECT_EQ(arrivals.load(), 2);
}

TEST(ParallelFor, RunsOnMinOfJobsAndCountThreads) {
  // The set of threads that ran a body. Every body waits until
  // `overlap` bodies have started, which takes that many threads.
  const auto threads_used = [](std::size_t count, std::size_t jobs,
                               int overlap) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::atomic<int> arrivals{0};
    fap::runtime::run_sweep(
        count, options_with_jobs(jobs), [&](std::size_t, std::uint64_t) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
          }
          arrivals.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (arrivals.load() < overlap) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << overlap << " bodies never overlapped";
            std::this_thread::yield();
          }
        });
    return ids;
  };
  const std::thread::id caller = std::this_thread::get_id();
  // One worker: every body runs inline on the calling thread.
  EXPECT_EQ(threads_used(16, 1, 1), std::set<std::thread::id>{caller});
  EXPECT_EQ(threads_used(1, 8, 1), std::set<std::thread::id>{caller});
  // Several: exactly min(jobs, count) workers, and the caller only waits.
  const std::set<std::thread::id> three = threads_used(3, 8, 3);
  EXPECT_EQ(three.size(), 3u);
  EXPECT_EQ(three.count(caller), 0u);
  const std::set<std::thread::id> two = threads_used(16, 2, 2);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(two.count(caller), 0u);
}

TEST(ParallelFor, RethrowsOnlyAfterEveryWorkerHasJoined) {
  // Index 0 throws at once; index 1 is still running and returns later.
  // The exception must reach the caller only after index 1 has returned.
  std::atomic<bool> thrown{false};
  std::atomic<bool> other_returned{false};
  try {
    fap::runtime::run_sweep(
        2, options_with_jobs(2), [&](std::size_t i, std::uint64_t) {
          if (i == 0) {
            thrown.store(true);
            throw std::runtime_error("index 0 failed");
          }
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!thrown.load()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "index 0 never threw";
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          other_returned.store(true);
        });
    FAIL() << "run_sweep returned without rethrowing";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "index 0 failed");
    EXPECT_TRUE(other_returned.load());
  }
}

TEST(ParallelFor, RejectsJobsAboveTheLimitBeforeAnyBodyRuns) {
  std::atomic<int> calls{0};
  EXPECT_THROW(fap::runtime::run_sweep(
                   2, options_with_jobs(fap::runtime::kMaxJobs + 1),
                   [&](std::size_t, std::uint64_t) { calls.fetch_add(1); }),
               fap::util::PreconditionError);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(fap::runtime::resolve_jobs(fap::runtime::kMaxJobs),
            fap::runtime::kMaxJobs);
}

TEST(MetricsSink, WritesOneValidJsonLinePerRecord) {
  const std::string path =
      testing::TempDir() + "/runtime_metrics_test.jsonl";
  MetricsSink sink(path);
  fap::runtime::run_sweep(
      32, options_with_jobs(4), [&sink](std::size_t i, std::uint64_t) {
        MetricsRecord record;
        record.run_id = "sink_test";
        record.task = "task " + std::to_string(i);
        record.task_index = i;
        record.values.emplace_back("value", static_cast<double>(i));
        sink.record(record);
      });
  EXPECT_EQ(sink.records_written(), 32u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::set<std::string> tasks;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // Concurrent writers must not tear lines: every line is a complete
    // object carrying the shared run id.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"run_id\":\"sink_test\""), std::string::npos);
    const std::size_t task_pos = line.find("\"task\":\"task ");
    ASSERT_NE(task_pos, std::string::npos);
    tasks.insert(line.substr(task_pos, line.find('"', task_pos + 9)));
  }
  EXPECT_EQ(lines, 32u);
  EXPECT_EQ(tasks.size(), 32u);  // all distinct tasks present
}

TEST(MetricsSink, JsonLineShapeIsStable) {
  MetricsRecord record;
  record.run_id = "fig6";
  record.task = "N=12";
  record.task_index = 8;
  record.seed = 42;
  record.wall_ms = 1.5;
  record.values.emplace_back("iterations", 11.0);
  record.series = {3.0, 2.5};
  EXPECT_EQ(fap::runtime::to_json_line(record),
            "{\"run_id\":\"fig6\",\"task\":\"N=12\",\"task_index\":8,"
            "\"seed\":42,\"wall_ms\":1.5,\"values\":{\"iterations\":11},"
            "\"series\":[3,2.5]}");
}

// --- seeds, ordered results, metrics ---------------------------------------

TEST(TaskSeed, IsPureAndPerIndexDistinct) {
  EXPECT_EQ(task_seed(1, 0), task_seed(1, 0));
  EXPECT_EQ(task_seed(1, 10), task_seed(1, 10));
  EXPECT_NE(task_seed(1, 0), task_seed(1, 1));
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
}

TEST(TaskSeed, MatchesRngSplitting) {
  // Definition check: task i's seed is the i-th draw of the base stream —
  // exactly the seed Rng::split() would hand the i-th derived generator.
  fap::util::Rng root(99);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(task_seed(99, i), root());
  }
}

TEST(Sweep, OrderedResultsRegardlessOfJobs) {
  const auto fn = [](std::size_t i, std::uint64_t) {
    return static_cast<double>(i) * 1.5;
  };
  const std::vector<double> serial =
      fap::runtime::sweep(33, options_with_jobs(1), fn);
  const std::vector<double> parallel =
      fap::runtime::sweep(33, options_with_jobs(8), fn);
  EXPECT_EQ(serial, parallel);
}

TEST(Sweep, PropagatesTaskExceptions) {
  const auto failing = [](std::size_t i, std::uint64_t) {
    if (i == 5) {
      throw std::runtime_error("sweep point exploded");
    }
    return i;
  };
  EXPECT_THROW(fap::runtime::sweep(8, options_with_jobs(4), failing),
               std::runtime_error);
  EXPECT_THROW(fap::runtime::sweep(8, options_with_jobs(1), failing),
               std::runtime_error);
}

// The acceptance bar for the subsystem: a fig6-style workload — per-task
// model construction, allocator run, per-task RNG — produces bit-identical
// results at jobs=1 and jobs=8.
TEST(Sweep, Fig6StyleWorkloadIsBitIdenticalAcrossJobCounts) {
  const auto measure = [](std::size_t index, std::uint64_t seed) {
    const std::size_t n = 4 + index;
    const fap::net::Topology topology = fap::net::make_complete(n, 1.0);
    const fap::core::SingleFileModel model(fap::core::make_problem(
        topology, fap::core::Workload::uniform(n, 1.0), /*mu=*/1.5,
        /*k=*/1.0));
    // A per-task randomized start exercises the seed derivation: identical
    // seeds => identical trajectories, whatever thread ran the task.
    fap::util::Rng rng(seed);
    std::vector<double> start(n, 0.0);
    double total = 0.0;
    for (double& s : start) {
      s = rng.uniform();
      total += s;
    }
    for (double& s : start) {
      s /= total;
    }
    fap::core::AllocatorOptions options;
    options.alpha = 0.3;
    options.epsilon = 1e-4;
    options.max_iterations = 20000;
    const fap::core::ResourceDirectedAllocator allocator(model, options);
    const fap::core::AllocationResult result = allocator.run(start);
    return std::make_pair(result.cost,
                          static_cast<double>(result.iterations));
  };
  const auto serial = fap::runtime::sweep(8, options_with_jobs(1), measure);
  const auto parallel =
      fap::runtime::sweep(8, options_with_jobs(8), measure);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first);  // bitwise, not near
    EXPECT_EQ(serial[i].second, parallel[i].second);
  }
}

TEST(RunDesReplications, DeterministicAcrossJobCountsAndNearAnalytic) {
  const fap::core::SingleFileModel model(
      fap::core::make_paper_ring_problem());
  const std::vector<double> x{0.25, 0.25, 0.25, 0.25};
  fap::sim::DesConfig config = fap::sim::des_config_for(model, x);
  config.measured_accesses = 20000;

  const fap::sim::ReplicatedDesResult serial =
      fap::sim::run_des_replications(config, 4, options_with_jobs(1, 123));
  const fap::sim::ReplicatedDesResult parallel =
      fap::sim::run_des_replications(config, 4, options_with_jobs(8, 123));

  EXPECT_EQ(serial.replications, 4u);
  EXPECT_EQ(serial.measured_cost, parallel.measured_cost);  // bitwise
  EXPECT_EQ(serial.comm_cost.mean(), parallel.comm_cost.mean());
  EXPECT_EQ(serial.sojourn.variance(), parallel.sojourn.variance());
  EXPECT_EQ(serial.cost_per_replication.min(),
            parallel.cost_per_replication.min());
  EXPECT_EQ(serial.comm_cost.count(), 4u * 20000u);

  // Replications genuinely differ (independent seeds) ...
  EXPECT_GT(serial.cost_per_replication.variance(), 0.0);
  // ... and the pooled measurement tracks Eq. 1.
  EXPECT_NEAR(serial.measured_cost, model.cost(x),
              0.05 * model.cost(x));
}

TEST(RunDesReplications, DifferentBaseSeedMovesTheMeasurement) {
  const fap::core::SingleFileModel model(
      fap::core::make_paper_ring_problem());
  fap::sim::DesConfig config =
      fap::sim::des_config_for(model, {0.25, 0.25, 0.25, 0.25});
  config.measured_accesses = 5000;
  const double a =
      fap::sim::run_des_replications(config, 2, options_with_jobs(2, 1))
          .measured_cost;
  const double b =
      fap::sim::run_des_replications(config, 2, options_with_jobs(2, 2))
          .measured_cost;
  EXPECT_NE(a, b);
}

TEST(TaskMetrics, CoalesceByNameAndScopeToTheTask) {
  // Outside any sweep, the accumulator drains cleanly.
  fap::runtime::detail::reset_task_metrics();
  fap::runtime::add_task_metric("warmup", 1.0);
  fap::runtime::detail::take_task_metrics();

  fap::runtime::detail::reset_task_metrics();
  fap::runtime::add_task_metric("hits", 1.0);
  fap::runtime::add_task_metric("batch", 8.0);
  fap::runtime::add_task_metric("hits", 2.0);  // same name: sums
  const auto values = fap::runtime::detail::take_task_metrics();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "hits");
  EXPECT_EQ(values[0].second, 3.0);
  EXPECT_EQ(values[1].first, "batch");
  EXPECT_EQ(values[1].second, 8.0);
  // take() leaves the accumulator empty.
  EXPECT_TRUE(fap::runtime::detail::take_task_metrics().empty());
}

TEST(BatchSweep, FlattenedResultsIndependentOfWidthAndJobs) {
  // Each item's result depends only on its global index, so any
  // (width, jobs) combination must flatten to the same vector as the
  // plain serial sweep.
  const auto run = [](std::size_t first,
                      std::size_t last) -> std::vector<double> {
    EXPECT_LT(first, last);  // batches are non-empty ranges
    std::vector<double> out;
    out.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      out.push_back(static_cast<double>(i) +
                    1e-9 * static_cast<double>(task_seed(7, i) % 1000));
    }
    return out;
  };
  const std::vector<double> reference = fap::runtime::sweep(
      23, options_with_jobs(1),
      [&](std::size_t i, std::uint64_t) { return run(i, i + 1)[0]; });
  for (const std::size_t width : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
      const std::vector<double> batched = fap::runtime::batch_sweep(
          23, width, options_with_jobs(jobs), run);
      EXPECT_EQ(batched, reference) << "width=" << width << " jobs=" << jobs;
    }
  }
}

TEST(BatchSweep, EmitsBatchSizeMetricPerBatch) {
  const std::string path = testing::TempDir() + "/batch_sweep_metrics.jsonl";
  std::size_t records = 0;
  {
    fap::runtime::MetricsSink sink(path);
    SweepOptions options = options_with_jobs(1, 3);
    options.metrics = &sink;
    options.run_id = "batch_sweep_test";
    // 10 items at width 4 -> batches of 4, 4, 2.
    fap::runtime::batch_sweep(10, 4, options,
                              [](std::size_t first, std::size_t last) {
                                std::vector<std::size_t> items;
                                for (std::size_t i = first; i < last; ++i) {
                                  items.push_back(i);
                                }
                                return items;
                              });
    records = sink.records_written();
  }
  EXPECT_EQ(records, 3u);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"batch_size\":4"), std::string::npos) << lines[0];
  EXPECT_NE(lines[2].find("\"batch_size\":2"), std::string::npos) << lines[2];
}

TEST(Sweep, MetricsRecordsOnePerTaskWithDerivedSeeds) {
  const std::string path = testing::TempDir() + "/sweep_metrics.jsonl";
  fap::runtime::MetricsSink sink(path);
  SweepOptions options = options_with_jobs(4, 11);
  options.metrics = &sink;
  options.run_id = "sweep_test";
  fap::runtime::sweep(10, options,
                      [](std::size_t i, std::uint64_t) { return i; });
  EXPECT_EQ(sink.records_written(), 10u);
}

}  // namespace
