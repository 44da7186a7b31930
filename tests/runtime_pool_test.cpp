#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace {

using fap::runtime::MetricsRecord;
using fap::runtime::MetricsSink;
using fap::runtime::ThreadPool;

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([i] {
      if (i == 3) {
        throw std::runtime_error("task failure");
      }
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, SurvivesReuseAfterExceptionBatch) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first batch fails"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);

  // The error was consumed by the failing batch's wait(); the pool keeps
  // executing subsequent batches as if nothing happened.
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(3);
  pool.wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each need the other to start before finishing can only
  // complete if the pool genuinely runs them on distinct threads.
  ThreadPool pool(2);
  std::atomic<int> arrivals{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&arrivals] {
      arrivals.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (arrivals.load() < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "tasks never overlapped; pool is not parallel";
        std::this_thread::yield();
      }
    });
  }
  pool.wait();
  EXPECT_EQ(arrivals.load(), 2);
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t count : {std::size_t{0}, std::size_t{2},
                                  std::size_t{64}}) {
    std::vector<std::atomic<int>> visits(count);
    fap::runtime::parallel_for(pool, count,
                               [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const std::atomic<int>& visit : visits) {
      EXPECT_EQ(visit.load(), 1) << "count " << count;
    }
  }
}

TEST(ParallelFor, IdleWorkerClaimsRemainingIndices) {
  // Index 0 blocks its worker until every other index has run, so the
  // loop finishes only if the second worker claims indices 1-7 itself; a
  // schedule fixed up front that queues 1-3 behind 0 on one worker fails.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 8;
  std::atomic<std::size_t> others_done{0};
  fap::runtime::parallel_for(pool, kCount, [&](std::size_t i) {
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

TEST(MetricsSink, WritesOneValidJsonLinePerRecord) {
  const std::string path =
      testing::TempDir() + "/runtime_metrics_test.jsonl";
  MetricsSink sink(path);
  ThreadPool pool(4);
  fap::runtime::parallel_for(pool, 32, [&sink](std::size_t i) {
    MetricsRecord record;
    record.run_id = "pool_test";
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
    EXPECT_NE(line.find("\"run_id\":\"pool_test\""), std::string::npos);
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

}  // namespace
