// Parallel loop over an index range.
//
// parallel_for(pool, count, body) runs body(0) .. body(count-1) on the
// pool's workers. Work is claimed dynamically: each worker takes the next
// unclaimed index from a shared counter whenever it finishes one, so
// indices start in ascending order and no worker idles while any remain.
// Which worker runs which index depends on timing, so parallel output is
// bit-identical to serial only because callers make every index
// self-contained: its RNG seed derives from the index (sweep.hpp) and its
// result lands in a per-index slot.
#pragma once

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"

namespace fap::runtime {

/// Runs body(i) for every i in [0, count) on the pool, blocking until all
/// complete. Exceptions from `body` propagate (first one wins). The body
/// must not submit to or wait on the same pool.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace fap::runtime
