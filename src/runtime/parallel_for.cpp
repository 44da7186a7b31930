#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>

namespace fap::runtime {

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  // One task per worker, not per index: each claims the next unclaimed
  // index as it frees up, so a worker that drew heavy indices never holds
  // back light ones queued behind them, and a sweep of many cheap points
  // pays one enqueue per worker rather than one per point.
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::min(pool.size(), count);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([&body, &next, count] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    });
  }
  pool.wait();
}

}  // namespace fap::runtime
