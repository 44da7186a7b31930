#include "runtime/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fap::runtime {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::uint64_t task_seed(std::uint64_t base_seed, std::size_t task_index) {
  // Each Rng::split() consumes exactly one draw of the parent stream, so
  // the task_index-th split's seed is the task_index-th parent draw —
  // computable in O(task_index) without materializing the intermediate
  // generators. Fine for random access to a single index; anything
  // enumerating seeds in order must use TaskSeedSequence, which walks
  // the stream once (amortized O(1) per seed, same values).
  util::Rng root(base_seed);
  std::uint64_t seed = root();
  for (std::size_t i = 0; i < task_index; ++i) {
    seed = root();
  }
  return seed;
}

std::size_t resolve_jobs(std::size_t jobs) {
  FAP_EXPECTS(jobs <= kMaxJobs,
              "jobs exceeds runtime::kMaxJobs worker threads");
  if (jobs != 0) {
    return jobs;
  }
  // The standard permits hardware_concurrency() to report 0.
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void run_sweep(std::size_t count, const SweepOptions& options,
               const std::function<void(std::size_t, std::uint64_t)>& body) {
  const std::size_t jobs = resolve_jobs(options.jobs);
  // Seeds come from one sequential walk of the root stream rather than a
  // per-task task_seed(base, i) call, whose O(i) rewind makes the whole
  // sweep quadratic in count. Same values, any schedule.
  std::vector<std::uint64_t> seeds(count);
  TaskSeedSequence sequence(options.base_seed);
  for (std::uint64_t& seed : seeds) {
    seed = sequence.next();
  }
  const auto run_task = [&](std::size_t i) {
    const std::uint64_t seed = seeds[i];
    // Scope the thread-local task-metric accumulator to this body: counters
    // added by any layer the task calls into (add_task_metric) land in this
    // task's record. Reset even without a sink so a previous non-sweep use
    // of the thread cannot leak counters into a later metered task.
    detail::reset_task_metrics();
    const auto started = std::chrono::steady_clock::now();
    body(i, seed);
    if (options.metrics != nullptr) {
      MetricsRecord record;
      record.run_id = options.run_id;
      record.task = "task " + std::to_string(i);
      record.task_index = i;
      record.seed = seed;
      record.wall_ms = elapsed_ms(started);
      record.values = detail::take_task_metrics();
      options.metrics->record(record);
    }
  };
  // No more workers than tasks: a short sweep under --jobs 0 on a wide
  // host would otherwise start and join threads that never get work.
  const std::size_t workers = std::min(jobs, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      run_task(i);
    }
    return;
  }
  // Each worker claims the next unclaimed index as it frees up, so one
  // that drew heavy indices never holds back light ones behind them.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_task(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  };
  {
    // Declared after everything `work` uses, so the jthreads join first,
    // also when starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back(work);
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace fap::runtime
