// All-pairs least-cost routing over a Topology.
//
// The paper routes every file access "along the shortest (least expensive)
// path" between requester and fragment holder; the resulting all-pairs
// distance matrix is exactly the c_ij of the cost model (c_ii = 0).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/topology.hpp"

namespace fap::runtime {
class ThreadPool;
}  // namespace fap::runtime

namespace fap::net {

/// Dense communication-cost matrix: cost(i, j) is the cost of one access
/// from i serviced at j (request plus response over the least-cost route).
class CostMatrix {
 public:
  /// All-zero n×n matrix. node_count 0 is allowed and yields an empty
  /// matrix (no entries, no rows).
  explicit CostMatrix(std::size_t node_count);

  std::size_t node_count() const noexcept { return n_; }
  double cost(NodeId i, NodeId j) const;
  void set_cost(NodeId i, NodeId j, double cost);

  /// Unchecked element access for validated inner loops (the checked
  /// cost() pays a bounds FAP_EXPECTS per element, which dominates O(n²)
  /// accumulations). Precondition: i < node_count() && j < node_count().
  double operator()(NodeId i, NodeId j) const noexcept {
    return data_[i * n_ + j];
  }

  /// Row i as a contiguous [node_count()]-length span (row-major storage):
  /// c_ij = row(i)[j]. Precondition: i < node_count().
  const double* row(NodeId i) const noexcept { return data_.data() + i * n_; }

  /// Mutable row access for bulk writers (the APSP kernel fills each
  /// source's row in place). Same precondition as row().
  double* mutable_row(NodeId i) noexcept { return data_.data() + i * n_; }

 private:
  std::size_t n_;
  std::vector<double> data_;
};

/// Reusable single-source shortest-path engine over a frozen topology:
/// the CSR adjacency is built once (O(n + m)) and each solve_into() runs
/// the indexed 4-ary-heap Dijkstra that fills one row. This is the SAME
/// kernel all_pairs_shortest_paths runs per source (shared code path), so
/// a solved row is byte-identical to the corresponding row of the dense
/// matrix — the contract net::RowCostProvider builds on.
class SingleSourceDijkstra {
 public:
  /// Requires a connected topology, like all_pairs_shortest_paths (a
  /// disconnected pair would make file access impossible).
  explicit SingleSourceDijkstra(const Topology& topology);

  std::size_t node_count() const noexcept { return n_; }

  /// Scratch buffers for solve_into. The engine itself is read-only after
  /// construction; callers owning one Scratch per thread may run
  /// concurrent solves against the same engine.
  struct Scratch {
    std::vector<double> heap_dist;
    std::vector<NodeId> heap_node;
    std::vector<std::int32_t> pos;
  };

  /// Writes the least costs from `source` into dist[0 .. node_count()).
  void solve_into(NodeId source, double* dist, Scratch& scratch) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<double> costs_;
};

/// Computes the all-pairs shortest-path cost matrix of `topology` by running
/// Dijkstra's algorithm from every source. Requires a connected topology
/// (disconnected pairs would make file access impossible).
CostMatrix all_pairs_shortest_paths(const Topology& topology);

/// Parallel variant: fans the per-source Dijkstra runs over the pool's
/// workers. Each source writes a disjoint row, so the result is
/// byte-identical to the serial overload for every topology.
CostMatrix all_pairs_shortest_paths(const Topology& topology,
                                    runtime::ThreadPool& pool);

/// Next-hop routing table entry for store-and-forward simulation: for each
/// destination, the neighbor to forward to on a least-cost path.
std::vector<NodeId> dijkstra_next_hops(const Topology& topology,
                                       NodeId source);

/// Number of links traversed by the least-cost route between every pair
/// (0 on the diagonal). Among equal-cost routes the fewest-hop one is
/// chosen. Used by the discrete-event simulator's store-and-forward
/// transport (per-hop latency).
std::vector<std::vector<std::size_t>> route_hop_counts(
    const Topology& topology);

inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

}  // namespace fap::net
