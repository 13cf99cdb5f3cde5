#include "core/pr.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lr {

PartialReversalState::PartialReversalState(const Graph& g, Orientation initial,
                                           NodeId destination)
    : LinkReversalBase(g, std::move(initial), destination) {
  const std::size_t n = graph().num_nodes();
  offsets_.resize(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) offsets_[u + 1] = offsets_[u] + graph().degree(u);
  in_list_.assign(offsets_[n], 0);  // "initially empty"
  list_size_.assign(n, 0);
}

PartialReversalState::PartialReversalState(const Instance& instance)
    : PartialReversalState(instance.graph, instance.make_orientation(), instance.destination) {}

std::size_t PartialReversalState::incidence_index_of(NodeId u, NodeId v) const {
  const auto nbrs = graph().neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  assert(it != nbrs.end() && *it == v);
  return static_cast<std::size_t>(it - nbrs.begin());
}

std::vector<NodeId> PartialReversalState::list(NodeId u) const {
  std::vector<NodeId> result;
  const auto nbrs = graph().neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (in_list_[slot(u, i)]) result.push_back(nbrs[i]);
  }
  return result;  // ascending because adjacency is sorted
}

bool PartialReversalState::list_contains(NodeId u, NodeId v) const {
  return in_list_[slot(u, incidence_index_of(u, v))] != 0;
}

void PartialReversalState::node_step_full(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error(
        "PartialReversalState::node_step_full: precondition violated (not a sink)");
  }
  const auto nbrs = graph().neighbors(u);
  const auto edges = graph().incident_edges(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId v = nbrs[i];
    orientation_.reverse_edge(edges[i]);
    const std::size_t vslot = slot(v, incidence_index_of(v, u));
    if (!in_list_[vslot]) {
      in_list_[vslot] = 1;
      ++list_size_[v];
    }
  }
  for (std::size_t i = 0; i < nbrs.size(); ++i) in_list_[slot(u, i)] = 0;
  list_size_[u] = 0;
  ++total_node_steps_;
}

void PartialReversalState::node_step(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("PartialReversalState::node_step: precondition violated (not a sink)");
  }
  const auto nbrs = graph().neighbors(u);
  const auto edges = graph().incident_edges(u);
  const bool reverse_all = list_full(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (!reverse_all && in_list_[slot(u, i)]) continue;  // v ∈ list[u]: keep
    const NodeId v = nbrs[i];
    // Effect: dir[u, v] := out; dir[v, u] := in; list[v] := list[v] ∪ {u}.
    orientation_.reverse_edge(edges[i]);
    const std::size_t vslot = slot(v, incidence_index_of(v, u));
    if (!in_list_[vslot]) {
      in_list_[vslot] = 1;
      ++list_size_[v];
    }
  }
  // list[u] := ∅
  for (std::size_t i = 0; i < nbrs.size(); ++i) in_list_[slot(u, i)] = 0;
  list_size_[u] = 0;
  ++total_node_steps_;
}

}  // namespace lr
