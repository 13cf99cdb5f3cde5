#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"

namespace lr {

Graph::Graph(std::size_t num_nodes, std::vector<std::pair<NodeId, NodeId>> edges) {
  auto store = std::make_shared<AdjacencyStore>();
  auto& endpoints = store->endpoints;
  endpoints = std::move(edges);
  const std::size_t m = endpoints.size();
  // Canonicalize and validate the adopted list in place.  Most generators,
  // the randomized ones included, emit strictly ascending canonical edges;
  // such a list has no parallel edges and is already in placement order,
  // so only other input pays for the sort below.
  if (2 * static_cast<std::uint64_t>(m) >= kCsrPosLimit) {
    throw std::overflow_error(
        "Graph: adjacency exceeds the 32-bit CSR position space (2*E >= 2^32)");
  }
  bool ascending = true;
  for (std::size_t e = 0; e < m; ++e) {
    auto& [a, b] = endpoints[e];
    if (a >= num_nodes || b >= num_nodes) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    if (a == b) {
      throw std::invalid_argument("Graph: self loop not allowed");
    }
    if (a > b) std::swap(a, b);
    if (e > 0 && !(endpoints[e - 1] < endpoints[e])) ascending = false;
  }
  // Placement order: edge ids by canonical pair.  Placing edges in that
  // order fills every block ascending — node w receives its smaller
  // neighbours x (edges (x, w), x ascending) before its larger ones.
  std::vector<EdgeId> order;
  if (!ascending) {
    order.resize(m);
    std::iota(order.begin(), order.end(), EdgeId{0});
    std::sort(order.begin(), order.end(),
              [&](EdgeId x, EdgeId y) { return endpoints[x] < endpoints[y]; });
    const auto same = [&](EdgeId x, EdgeId y) { return endpoints[x] == endpoints[y]; };
    if (std::adjacent_find(order.begin(), order.end(), same) != order.end()) {
      throw std::invalid_argument("Graph: parallel edge not allowed");
    }
  }

  auto& offsets = store->offsets;
  offsets.assign(num_nodes + 1, 0);
  for (const auto& [a, b] : endpoints) {
    ++offsets[a + 1];
    ++offsets[b + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  store->nbr.resize(2 * m);
  store->edge.resize(2 * m);
  std::vector<CsrPos> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const EdgeId e = ascending ? static_cast<EdgeId>(i) : order[i];
    const auto [a, b] = endpoints[e];
    store->nbr[cursor[a]] = b;
    store->edge[cursor[a]++] = e;
    store->nbr[cursor[b]] = a;
    store->edge[cursor[b]++] = e;
  }

  endpoints_ = store->endpoints;
  offsets_ = store->offsets;
  nbr_ = store->nbr;
  edge_ = store->edge;
  owner_ = std::move(store);
}

Graph::Graph(const CsrGraph& csr) {
  if (csr.raw_offsets().empty()) return;  // the empty CSR graph
  const std::size_t n = csr.num_nodes();
  const std::size_t m = csr.num_edges();
  auto store = std::make_shared<AdjacencyStore>();
  store->shared = csr.a_.owner;
  // The canonical (min, max) pair of each edge appears exactly once as
  // (u, nbr[p]) with u < nbr[p] while walking the blocks.
  store->endpoints.resize(m);
  const auto nbr = csr.raw_neighbors();
  const auto edge = csr.raw_edges();
  for (NodeId u = 0; u < n; ++u) {
    for (CsrPos p = csr.adjacency_begin(u); p < csr.adjacency_end(u); ++p) {
      if (nbr[p] >= n || edge[p] >= m) {
        throw std::invalid_argument("Graph: CSR neighbour or edge id out of range");
      }
      if (u < nbr[p]) store->endpoints[edge[p]] = {u, nbr[p]};
    }
  }
  endpoints_ = store->endpoints;
  offsets_ = csr.raw_offsets();
  nbr_ = nbr;
  edge_ = edge;
  owner_ = std::move(store);
}

bool operator==(const Graph& a, const Graph& b) {
  return a.num_nodes() == b.num_nodes() && std::ranges::equal(a.endpoints_, b.endpoints_);
}

EdgeId Graph::edge_between(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it != nbrs.end() && *it == v) return incident_edges(u)[it - nbrs.begin()];
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
    for (const NodeId v : neighbors(u)) {
      if (!visited[v]) {
        visited[v] = true;
        ++reached;
        frontier.push(v);
      }
    }
  }
  return reached == n;
}

std::string Graph::describe() const {
  return "Graph(n=" + std::to_string(num_nodes()) + ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace lr
