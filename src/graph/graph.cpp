#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

namespace lr {

Graph::Graph(std::size_t num_nodes, std::vector<std::pair<NodeId, NodeId>> edges)
    : endpoints_(std::move(edges)) {
  // Canonicalize and validate the adopted list in place.  Most generators,
  // the randomized ones included, emit strictly ascending canonical edges;
  // such a list has no parallel edges and already yields ascending
  // neighbour blocks, so only other input pays for the duplicate sort below
  // and the per-node sorts after the CSR fill.
  if (2 * static_cast<std::uint64_t>(endpoints_.size()) >= kCsrPosLimit) {
    throw std::overflow_error(
        "Graph: adjacency exceeds the 32-bit CSR position space (2*E >= 2^32)");
  }
  bool ascending = true;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    auto& [a, b] = endpoints_[e];
    if (a >= num_nodes || b >= num_nodes) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (a == b) {
      throw std::invalid_argument("Graph: self loop not allowed");
    }
    if (a > b) std::swap(a, b);
    if (e > 0 && !(endpoints_[e - 1] < endpoints_[e])) ascending = false;
  }
  if (!ascending) {
    std::vector<std::pair<NodeId, NodeId>> sorted(endpoints_);
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("Graph: parallel edge not allowed");
    }
  }

  // Build CSR adjacency with neighbors sorted ascending per node.
  adjacency_offsets_.assign(num_nodes + 1, 0);
  for (const auto& [a, b] : endpoints_) {
    ++adjacency_offsets_[a + 1];
    ++adjacency_offsets_[b + 1];
  }
  for (std::size_t i = 1; i <= num_nodes; ++i) {
    adjacency_offsets_[i] += adjacency_offsets_[i - 1];
  }
  adjacency_.resize(endpoints_.size() * 2);
  std::vector<CsrPos> cursor(adjacency_offsets_.begin(), adjacency_offsets_.end() - 1);
  for (EdgeId e = 0; e < endpoints_.size(); ++e) {
    const auto [a, b] = endpoints_[e];
    adjacency_[cursor[a]++] = Incidence{b, e};
    adjacency_[cursor[b]++] = Incidence{a, e};
  }
  if (ascending) return;
  for (NodeId u = 0; u < num_nodes; ++u) {
    auto begin = adjacency_.begin() + static_cast<std::ptrdiff_t>(adjacency_offsets_[u]);
    auto end = adjacency_.begin() + static_cast<std::ptrdiff_t>(adjacency_offsets_[u + 1]);
    std::sort(begin, end, [](const Incidence& x, const Incidence& y) {
      return x.neighbor < y.neighbor;
    });
  }
}

Graph Graph::from_trusted_parts(TrustedParts parts) {
  Graph g;
  g.endpoints_ = std::move(parts.endpoints);
  g.adjacency_ = std::move(parts.adjacency);
  g.adjacency_offsets_ = std::move(parts.offsets);
  return g;
}

EdgeId Graph::edge_between(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v,
                             [](const Incidence& inc, NodeId target) {
                               return inc.neighbor < target;
                             });
  if (it != nbrs.end() && it->neighbor == v) return it->edge;
  return kNoEdge;
}

bool Graph::is_connected() const {
  const std::size_t n = num_nodes();
  if (n <= 1) return true;
  std::vector<bool> visited(n, false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  visited[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Incidence& inc : neighbors(u)) {
      if (!visited[inc.neighbor]) {
        visited[inc.neighbor] = true;
        ++reached;
        frontier.push(inc.neighbor);
      }
    }
  }
  return reached == n;
}

std::string Graph::describe() const {
  return "Graph(n=" + std::to_string(num_nodes()) + ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace lr
