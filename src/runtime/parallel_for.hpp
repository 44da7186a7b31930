// Parallel loop over an index range.
//
// parallel_for(pool, count, body) runs body(0) .. body(count-1) on the
// pool's workers. Work is split by static chunking (static_chunks):
// contiguous index blocks, one per worker, computed up front. Static
// chunking keeps the execution plan a pure function of (count, jobs);
// combined with per-task RNG seeds derived from the task index
// (sweep.hpp) and results written to per-index slots, it makes parallel
// output bit-identical to serial.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace fap::runtime {

/// Half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
};

/// Splits [0, count) into at most `chunks` contiguous ranges whose sizes
/// differ by at most one (the first `count % chunks` ranges get the extra
/// element). Never returns empty ranges; returns fewer than `chunks`
/// ranges when count < chunks, and nothing when count == 0.
std::vector<IndexRange> static_chunks(std::size_t count, std::size_t chunks);

/// Runs body(i) for every i in [0, count) on the pool, blocking until all
/// complete. Exceptions from `body` propagate (first one wins). The body
/// must not submit to or wait on the same pool.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace fap::runtime
