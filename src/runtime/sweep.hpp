// Deterministic sweep / replication runner.
//
// The benches' outer loops — "for each N", "for each cap", "for each
// replication" — are embarrassingly parallel, but naive parallelization
// breaks reproducibility the moment tasks share an RNG: the interleaving
// decides who draws what. The sweep runner removes the sharing instead of
// the parallelism. Every task i receives its own seed, a pure function
// task_seed(base_seed, i) of the experiment's base seed and the task
// index computed via util::Rng's splitting, so
//
//     sweep(count, {.jobs = 1}, fn)  ==  sweep(count, {.jobs = 8}, fn)
//
// element for element, bit for bit — scheduling cannot be observed.
// Results come back in task order, so per-replication statistics merged
// in that order through util::RunningStats::merge (parallel Welford,
// exact, not approximate) do not depend on the job count either (see
// sim::run_des_replications). When a MetricsSink is attached, each
// completed task appends a JSONL record with its index, seed and
// wall-clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "util/rng.hpp"

namespace fap::runtime {

struct SweepOptions {
  /// Worker threads. 1 runs inline on the calling thread (no pool);
  /// 0 asks for ThreadPool::hardware_jobs().
  std::size_t jobs = 1;
  /// Master seed of the experiment; task i derives task_seed(base_seed, i).
  std::uint64_t base_seed = 1;
  /// Optional observability sink (not owned); null disables metrics.
  MetricsSink* metrics = nullptr;
  /// Run identity stamped on metrics records, e.g. the bench name.
  std::string run_id;
};

/// The per-task seed: the task_index-th draw of a util::Rng stream rooted
/// at base_seed, i.e. repeated stream splitting. Pure, so any task's seed
/// can be recomputed without running the others; distinct indices give
/// statistically independent xoshiro streams (Rng::split).
std::uint64_t task_seed(std::uint64_t base_seed, std::size_t task_index);

/// Sequential enumeration of the task seeds: the k-th next() returns
/// exactly task_seed(base_seed, k), but in amortized O(1) instead of
/// O(k) — task_seed(base, k) is the (k+1)-th draw of the root stream,
/// so walking the stream once enumerates every task's seed. Million-item
/// batch sweeps (catalog allocation) would otherwise spend O(K^2) draws
/// just deriving seeds.
class TaskSeedSequence {
 public:
  explicit TaskSeedSequence(std::uint64_t base_seed) : root_(base_seed) {}

  /// Seed of the next task index, starting from 0.
  std::uint64_t next() { return root_(); }

 private:
  util::Rng root_;
};

/// Resolves SweepOptions::jobs (0 -> hardware) and never returns 0.
std::size_t resolve_jobs(std::size_t jobs);

/// Type-erased core: runs body(i, task_seed(base_seed, i)) for all
/// i in [0, count), serially when resolve_jobs(options.jobs) == 1 or
/// count <= 1, and otherwise on a fresh ThreadPool of
/// min(resolve_jobs(options.jobs), count) workers, recording metrics per
/// task if attached.
/// Exceptions from `body` propagate to the caller (first one wins).
void run_sweep(std::size_t count, const SweepOptions& options,
               const std::function<void(std::size_t, std::uint64_t)>& body);

/// Ordered parallel sweep: element i of the result is
/// fn(i, task_seed(base_seed, i)). `fn` must not touch shared mutable
/// state — everything it needs beyond (index, seed) should be captured
/// by value or const reference.
template <typename Fn>
auto sweep(std::size_t count, const SweepOptions& options, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}, std::uint64_t{0}))> {
  using Result = decltype(fn(std::size_t{0}, std::uint64_t{0}));
  std::vector<std::optional<Result>> slots(count);
  run_sweep(count, options, [&](std::size_t i, std::uint64_t seed) {
    slots[i].emplace(fn(i, seed));
  });
  std::vector<Result> results;
  results.reserve(count);
  for (std::optional<Result>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

/// Batch-submission sweep: packs `count` items into contiguous batches of
/// at most `width` and runs each batch as ONE sweep task (so --jobs
/// distributes whole batches and --metrics gets one record per batch,
/// automatically carrying a "batch_size" value). Designed for
/// core::BatchAllocator: `make(i, task_seed(base_seed, i))` builds item
/// i's submission; `run(first_index, items)` consumes one batch and
/// returns a vector of per-item results in item order, which batch_sweep
/// flattens back into global item order. Because every item's seed
/// derives from its global index and `run` must treat items
/// independently, the flattened result is byte-identical across jobs
/// AND width choices — partitioning cannot be observed.
template <typename Make, typename Run>
auto batch_sweep(std::size_t count, std::size_t width,
                 const SweepOptions& options, Make&& make, Run&& run)
    -> decltype(run(std::size_t{0},
                    std::declval<std::vector<std::decay_t<decltype(make(
                        std::size_t{0}, std::uint64_t{0}))>>>())) {
  using Item = std::decay_t<decltype(make(std::size_t{0}, std::uint64_t{0}))>;
  using Results = decltype(run(std::size_t{0}, std::declval<std::vector<Item>>()));
  if (width == 0) {
    width = 1;
  }
  if (count == 0) {
    return Results{};
  }
  const std::size_t batches = (count + width - 1) / width;
  // Item seeds enumerated up front in one O(count) stream walk — the
  // per-call task_seed(base, i) is O(i), which is quadratic over a
  // million-item catalog. Values are identical by construction.
  std::vector<std::uint64_t> item_seeds(count);
  TaskSeedSequence seeds(options.base_seed);
  for (std::uint64_t& s : item_seeds) {
    s = seeds.next();
  }
  std::vector<Results> parts(batches);
  run_sweep(batches, options, [&](std::size_t b, std::uint64_t) {
    const std::size_t first = b * width;
    const std::size_t last = std::min(count, first + width);
    std::vector<Item> items;
    items.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      items.push_back(make(i, item_seeds[i]));
    }
    add_task_metric("batch_size", static_cast<double>(last - first));
    parts[b] = run(first, std::move(items));
  });
  Results flat;
  flat.reserve(count);
  for (Results& part : parts) {
    for (auto& item : part) {
      flat.push_back(std::move(item));
    }
  }
  return flat;
}

}  // namespace fap::runtime
