// Physical network model: an undirected weighted graph of nodes.
//
// The paper assumes a logically fully connected network in which accesses
// are routed along the least-expensive (shortest) path; the communication
// cost matrix c_ij of the cost model is therefore the all-pairs shortest
// path distance over this graph (see shortest_paths.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace fap::net {

using NodeId = std::size_t;

/// One undirected weighted link.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double cost = 1.0;
};

/// Undirected weighted multigraph-free topology. Link costs model the cost
/// of sending one file access (request + response) across the link.
class Topology {
 public:
  /// Creates a topology with `node_count` isolated nodes.
  explicit Topology(std::size_t node_count);

  std::size_t node_count() const noexcept { return adjacency_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Adds an undirected link of the given positive cost. Self-loops and
  /// duplicate edges are rejected (a duplicate would be ambiguous: the
  /// shortest-path layer would silently pick the cheaper one).
  void add_edge(NodeId u, NodeId v, double cost);

  /// True if an edge between u and v exists.
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges, in insertion order.
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Neighbors of `u` with the connecting link cost.
  struct Neighbor {
    NodeId node = 0;
    double cost = 0.0;
  };
  const std::vector<Neighbor>& neighbors(NodeId u) const;

  /// True when every node can reach every other node.
  bool connected() const;

 private:
  std::vector<std::vector<Neighbor>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace fap::net
