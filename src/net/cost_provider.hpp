// Row-based access to the communication-cost structure c_ij.
//
// Every allocator path used to funnel through a dense n×n CostMatrix —
// O(n·m log n) to build and O(n²) to hold, fine at the paper's N = 4..20
// and fatal at the ROADMAP's N = 1k..10k. The consumers, however, only
// ever read c_ij one SOURCE ROW at a time (access-cost assembly streams
// rows j = 0..n-1 once; the catalog engine reads row(h_o) per object).
// CostProvider abstracts exactly that access pattern behind three
// implementations:
//
//   DenseCostProvider         shares ownership of a CostMatrix; row() is
//                             a zero-copy pointer into it ("every row
//                             resident"). Small-N default.
//   RowCostProvider           runs the CSR 4-ary-heap Dijkstra per
//                             requested source row (net::
//                             SingleSourceDijkstra — the SAME kernel the
//                             dense matrix is built with, so rows are
//                             byte-identical to dense rows) behind a
//                             bounded LRU row cache with single-flight
//                             per-row computation. Exact on any
//                             topology; memory O(n + m + capacity·n),
//                             never n×n.
//   HierarchicalCostProvider  computes c_ij in O(depth) per pair from a
//                             HierarchySpec — on a tier tree the route is
//                             unique (up to the LCA, then down) and the
//                             costs are accumulated in path order, the
//                             exact left-to-right fold Dijkstra performs,
//                             so values are bit-identical to running
//                             Dijkstra on the explicit tree. O(n) memory,
//                             no graph traversal at all.
//
// Determinism contract: for the same topology, row(i) returns the same
// bytes from every provider (pinned by net_cost_provider_test), so
// swapping providers cannot perturb any downstream result. Row HANDLES
// (CostRow) share ownership of their storage: a handle stays valid after
// the row is evicted from a provider's cache.
//
// Thread safety: all providers are safe for concurrent row()/cost() calls.
// The cached providers share detail::RowCache, the repo's one
// single-flight cache: concurrent misses on one row compute it exactly
// once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/hierarchy.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"

namespace fap::net {

/// Shared-ownership view of one source row of c_ij: data()[j] = c(i, j).
/// Copyable and cheap; keeps the underlying storage alive (a dense
/// matrix or a cached row) even if the provider evicts or is destroyed.
class CostRow {
 public:
  CostRow() = default;
  CostRow(const double* data, std::size_t size,
          std::shared_ptr<const void> keepalive)
      : data_(data), size_(size), keepalive_(std::move(keepalive)) {}

  const double* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  double operator[](std::size_t j) const noexcept { return data_[j]; }
  explicit operator bool() const noexcept { return data_ != nullptr; }

 private:
  const double* data_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// Abstract source of c_ij rows. Implementations must be thread-safe and
/// deterministic: row(i) always returns the same bytes for the same
/// underlying network.
class CostProvider {
 public:
  virtual ~CostProvider() = default;

  virtual std::size_t node_count() const noexcept = 0;

  /// Source row i: row(i)[j] = c(i, j). The handle keeps the storage
  /// alive independently of the provider's cache.
  virtual CostRow row(NodeId i) const = 0;

  /// One entry. Providers with O(1) pair access override this; the
  /// default reads it out of row(i).
  virtual double cost(NodeId i, NodeId j) const { return row(i)[j]; }
};

/// Zero-copy adapter over a dense CostMatrix.
class DenseCostProvider final : public CostProvider {
 public:
  /// Shares ownership of the matrix.
  explicit DenseCostProvider(std::shared_ptr<const CostMatrix> matrix);

  std::size_t node_count() const noexcept override;
  CostRow row(NodeId i) const override;
  double cost(NodeId i, NodeId j) const override;

 private:
  std::shared_ptr<const CostMatrix> matrix_;
};

namespace detail {

/// Bounded LRU cache of materialized rows with single-flight fills —
/// the shared machinery of RowCostProvider and HierarchicalCostProvider.
/// `fill(i, out)` is invoked outside the lock, exactly once per cache
/// residency of row i (concurrent requests for an in-flight row wait and
/// share the result). Evicted rows stay alive while any CostRow handle
/// references them.
class RowCache {
 public:
  /// `capacity` >= 1 bounds the number of RESIDENT rows; in-flight
  /// computations may transiently exceed it.
  RowCache(std::size_t node_count, std::size_t capacity,
           std::function<void(NodeId, double*)> fill);

  CostRow get(NodeId i) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Resident (ready) rows right now.
  std::size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<std::vector<double>> data;
    bool ready = false;
    bool failed = false;
    std::list<NodeId>::iterator lru_it;  // valid only once ready
  };

  std::size_t n_;
  std::size_t capacity_;
  std::function<void(NodeId, double*)> fill_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::unordered_map<NodeId, std::shared_ptr<Slot>> slots_;
  mutable std::list<NodeId> lru_;  // front = most recently used
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace detail

/// On-demand single-source provider: one CSR Dijkstra per requested row,
/// LRU-cached. Exact on any connected topology. Memory O(n + m +
/// capacity·n); build cost O(n + m); each cache miss costs one
/// O(m log n) Dijkstra.
class RowCostProvider final : public CostProvider {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  /// Requires a connected topology (same contract as
  /// all_pairs_shortest_paths). The topology is flattened into the
  /// provider; it need not outlive it.
  explicit RowCostProvider(const Topology& topology,
                           std::size_t row_cache_capacity = kDefaultCapacity);

  std::size_t node_count() const noexcept override;
  CostRow row(NodeId i) const override;

  detail::RowCache::Stats cache_stats() const noexcept {
    return cache_.stats();
  }

 private:
  SingleSourceDijkstra engine_;
  detail::RowCache cache_;
};

/// Implicit provider over a HierarchySpec: cost(i, j) is computed in
/// O(depth) from the tier decomposition (no Dijkstra, no edges), with the
/// per-link costs accumulated in path order so the result is bit-identical
/// to Dijkstra on the explicit tree (make_tier_topology). row() serves
/// materialized rows (O(n·depth) to fill) through the same LRU +
/// single-flight cache as RowCostProvider. Memory O(n) + O(capacity·n).
class HierarchicalCostProvider final : public CostProvider {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit HierarchicalCostProvider(
      HierarchySpec spec, std::size_t row_cache_capacity = kDefaultCapacity);

  std::size_t node_count() const noexcept override;
  CostRow row(NodeId i) const override;
  double cost(NodeId i, NodeId j) const override;

  /// Writes row i into out[0 .. node_count()) without touching the cache.
  void fill_row(NodeId i, double* out) const;

  const HierarchySpec& spec() const noexcept { return spec_; }
  detail::RowCache::Stats cache_stats() const noexcept {
    return cache_.stats();
  }

 private:
  HierarchySpec spec_;
  std::vector<std::size_t> level_offsets_;
  std::size_t n_;
  detail::RowCache cache_;
};

}  // namespace fap::net
