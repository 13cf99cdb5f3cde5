#include "graph/orientation.hpp"

#include <stdexcept>

namespace lr {

Orientation::Orientation(const Graph& g, std::vector<EdgeSense> senses)
    : graph_(&g), senses_(std::move(senses)) {
  if (senses_.size() != g.num_edges()) {
    throw std::invalid_argument("Orientation: one sense required per edge");
  }
  const std::size_t n = g.num_nodes();
  out_degree_.assign(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ++out_degree_[tail(e)];
  }
  sink_index_.reset(n);
  for (NodeId u = 0; u < n; ++u) {
    if (out_degree_[u] == 0) sink_index_.insert(u);
  }
}

Orientation Orientation::from_ranking(const Graph& g, std::span<const std::uint32_t> rank) {
  if (rank.size() != g.num_nodes()) {
    throw std::invalid_argument("Orientation::from_ranking: one rank per node required");
  }
  std::vector<EdgeSense> senses(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const NodeId u = g.edge_u(e);
    const NodeId v = g.edge_v(e);
    if (rank[u] == rank[v]) {
      throw std::invalid_argument("Orientation::from_ranking: ranks of adjacent nodes must differ");
    }
    senses[e] = rank[u] < rank[v] ? EdgeSense::kForward : EdgeSense::kBackward;
  }
  return Orientation(g, std::move(senses));
}

void Orientation::reverse_edge(EdgeId e) {
  const NodeId old_tail = tail(e);
  const NodeId old_head = head(e);
  senses_[e] = senses_[e] == EdgeSense::kForward ? EdgeSense::kBackward : EdgeSense::kForward;
  ++reversal_count_;

  // old_tail loses an outgoing edge; may become a sink.
  if (--out_degree_[old_tail] == 0) sink_index_.insert(old_tail);
  // old_head gains an outgoing edge; may stop being a sink.
  if (out_degree_[old_head]++ == 0) sink_index_.erase(old_head);
}

std::vector<NodeId> Orientation::out_neighbors(NodeId u) const {
  std::vector<NodeId> result;
  result.reserve(out_degree_[u]);
  const auto nbrs = graph_->neighbors(u);
  const auto edges = graph_->incident_edges(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (dir_from(u, edges[i]) == Dir::kOut) result.push_back(nbrs[i]);
  }
  return result;
}

std::vector<NodeId> Orientation::in_neighbors(NodeId u) const {
  std::vector<NodeId> result;
  result.reserve(in_degree(u));
  const auto nbrs = graph_->neighbors(u);
  const auto edges = graph_->incident_edges(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (dir_from(u, edges[i]) == Dir::kIn) result.push_back(nbrs[i]);
  }
  return result;
}

}  // namespace lr
