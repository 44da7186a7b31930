#include "net/cost_provider.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace fap::net {

// ---------------------------------------------------------------------------
// DenseCostProvider

DenseCostProvider::DenseCostProvider(std::shared_ptr<const CostMatrix> matrix)
    : matrix_(std::move(matrix)) {
  FAP_EXPECTS(matrix_ != nullptr, "dense provider needs a matrix");
}

std::size_t DenseCostProvider::node_count() const noexcept {
  return matrix_->node_count();
}

CostRow DenseCostProvider::row(NodeId i) const {
  FAP_EXPECTS(i < matrix_->node_count(), "row source out of range");
  return CostRow(matrix_->row(i), matrix_->node_count(), matrix_);
}

double DenseCostProvider::cost(NodeId i, NodeId j) const {
  return matrix_->cost(i, j);
}

// ---------------------------------------------------------------------------
// detail::RowCache

namespace detail {

RowCache::RowCache(std::size_t node_count, std::size_t capacity,
                   std::function<void(NodeId, double*)> fill)
    : n_(node_count), capacity_(capacity), fill_(std::move(fill)) {
  FAP_EXPECTS(capacity_ >= 1, "row cache capacity must be at least 1");
  FAP_EXPECTS(fill_ != nullptr, "row cache needs a fill function");
}

CostRow RowCache::get(NodeId i) const {
  FAP_EXPECTS(i < n_, "row source out of range");
  for (;;) {
    std::shared_ptr<Slot> slot;
    bool owner = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto it = slots_.find(i);
      if (it != slots_.end()) {
        slot = it->second;
        if (slot->ready) {
          lru_.splice(lru_.begin(), lru_, slot->lru_it);
          hits_.fetch_add(1, std::memory_order_relaxed);
          return CostRow(slot->data->data(), n_, slot->data);
        }
        // In flight: fall through to wait below.
      } else {
        slot = std::make_shared<Slot>();
        slots_.emplace(i, slot);
        owner = true;
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    if (owner) {
      auto data = std::make_shared<std::vector<double>>(n_);
      try {
        fill_(i, data->data());
      } catch (...) {
        // Publish the failure, detach the slot so later callers retry,
        // and rethrow to this caller. Waiters see `failed` and retry.
        std::lock_guard<std::mutex> lock(mutex_);
        slot->failed = true;
        slots_.erase(i);
        cv_.notify_all();
        throw;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      slot->data = std::move(data);
      slot->ready = true;
      lru_.push_front(i);
      slot->lru_it = lru_.begin();
      while (lru_.size() > capacity_) {
        // Only ready slots live in the LRU list, so eviction never
        // touches an in-flight computation. Outstanding CostRow handles
        // keep the evicted storage alive via their shared_ptr.
        const NodeId victim = lru_.back();
        lru_.pop_back();
        slots_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      cv_.notify_all();
      return CostRow(slot->data->data(), n_, slot->data);
    }

    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return slot->ready || slot->failed; });
    if (slot->ready) {
      // The slot may have been evicted while we waited; the shared_ptr
      // still owns the data, so the handle stays valid either way. Only
      // bump recency if the row is still resident.
      auto it = slots_.find(i);
      if (it != slots_.end() && it->second == slot) {
        lru_.splice(lru_.begin(), lru_, slot->lru_it);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return CostRow(slot->data->data(), n_, slot->data);
    }
    // The computing thread failed; loop around and try to become the
    // owner of a fresh attempt.
  }
}

RowCache::Stats RowCache::stats() const noexcept {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t RowCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// RowCostProvider

namespace {

// One Dijkstra scratch per thread, shared by every RowCostProvider: the
// kernel sizes/reset its buffers per solve, so reuse across providers and
// node counts is safe and keeps repeat solves allocation-free.
SingleSourceDijkstra::Scratch& thread_scratch() {
  thread_local SingleSourceDijkstra::Scratch scratch;
  return scratch;
}

}  // namespace

RowCostProvider::RowCostProvider(const Topology& topology,
                                 std::size_t row_cache_capacity)
    : engine_(topology),
      cache_(topology.node_count(), row_cache_capacity,
             [this](NodeId source, double* out) {
               engine_.solve_into(source, out, thread_scratch());
             }) {}

std::size_t RowCostProvider::node_count() const noexcept {
  return engine_.node_count();
}

CostRow RowCostProvider::row(NodeId i) const { return cache_.get(i); }

// ---------------------------------------------------------------------------
// HierarchicalCostProvider

HierarchicalCostProvider::HierarchicalCostProvider(
    HierarchySpec spec, std::size_t row_cache_capacity)
    : spec_(std::move(spec)),
      level_offsets_(spec_.level_offsets()),  // validates spec_
      n_(level_offsets_.back()),
      cache_(n_, row_cache_capacity, [this](NodeId source, double* out) {
        fill_row(source, out);
      }) {}

std::size_t HierarchicalCostProvider::node_count() const noexcept {
  return n_;
}

double HierarchicalCostProvider::cost(NodeId i, NodeId j) const {
  FAP_EXPECTS(i < n_ && j < n_, "node id out of range");
  if (i == j) {
    return 0.0;
  }
  // Decompose both ids into (level, rank) under the BFS numbering.
  std::size_t li = 0;
  while (level_offsets_[li + 1] <= i) {
    ++li;
  }
  std::size_t lj = 0;
  while (level_offsets_[lj + 1] <= j) {
    ++lj;
  }
  std::size_t ri = i - level_offsets_[li];
  std::size_t rj = j - level_offsets_[lj];
  // Lift the deeper node until both sit on one level, then lift both to
  // the lowest common ancestor. rank(parent) = rank(child) / fanout.
  std::size_t ui = li;
  std::size_t uj = lj;
  while (ui > uj) {
    ri /= spec_.fanout[--ui];
  }
  while (uj > ui) {
    rj /= spec_.fanout[--uj];
  }
  while (ri != rj) {
    ri /= spec_.fanout[--ui];
    rj /= spec_.fanout[--uj];
  }
  const std::size_t lca = ui;
  // Accumulate link costs in path order — first i's up-links from deepest
  // to the LCA, then the down-links to j. On a tree Dijkstra relaxes each
  // node exactly once, from its unique path predecessor, so dist(j) is
  // this same left-to-right fold: the sum is bit-identical, not merely
  // mathematically equal.
  double acc = 0.0;
  for (std::size_t l = li; l > lca; --l) {
    acc += spec_.tier_cost[l - 1];
  }
  for (std::size_t l = lca; l < lj; ++l) {
    acc += spec_.tier_cost[l];
  }
  return acc;
}

void HierarchicalCostProvider::fill_row(NodeId i, double* out) const {
  FAP_EXPECTS(i < n_, "row source out of range");
  for (std::size_t j = 0; j < n_; ++j) {
    out[j] = cost(i, j);
  }
}

CostRow HierarchicalCostProvider::row(NodeId i) const { return cache_.get(i); }

}  // namespace fap::net
