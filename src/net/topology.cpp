#include "net/topology.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace fap::net {

Topology::Topology(std::size_t node_count) : adjacency_(node_count) {
  FAP_EXPECTS(node_count >= 1, "topology needs at least one node");
}

void Topology::add_edge(NodeId u, NodeId v, double cost) {
  FAP_EXPECTS(u < node_count() && v < node_count(), "node id out of range");
  FAP_EXPECTS(u != v, "self-loops are not allowed");
  FAP_EXPECTS(cost > 0.0, "link cost must be positive");
  FAP_EXPECTS(!has_edge(u, v), "duplicate edge");
  edges_.push_back(Edge{u, v, cost});
  adjacency_[u].push_back(Neighbor{v, cost});
  adjacency_[v].push_back(Neighbor{u, cost});
}

bool Topology::has_edge(NodeId u, NodeId v) const {
  FAP_EXPECTS(u < node_count() && v < node_count(), "node id out of range");
  return std::any_of(adjacency_[u].begin(), adjacency_[u].end(),
                     [v](const Neighbor& n) { return n.node == v; });
}

const std::vector<Topology::Neighbor>& Topology::neighbors(NodeId u) const {
  FAP_EXPECTS(u < node_count(), "node id out of range");
  return adjacency_[u];
}

bool Topology::connected() const {
  std::vector<bool> seen(node_count(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Neighbor& n : adjacency_[u]) {
      if (!seen[n.node]) {
        seen[n.node] = true;
        ++visited;
        stack.push_back(n.node);
      }
    }
  }
  return visited == node_count();
}

}  // namespace fap::net
