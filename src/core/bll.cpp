#include "core/bll.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "graph/digraph_algos.hpp"

namespace lr {

BLLAutomaton::BLLAutomaton(const Graph& g, Orientation initial, NodeId destination,
                           std::vector<std::uint8_t> initial_marks)
    : LinkReversalBase(g, std::move(initial), destination), marked_(std::move(initial_marks)) {
  const std::size_t n = graph().num_nodes();
  offsets_.resize(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) offsets_[u + 1] = offsets_[u] + graph().degree(u);
  if (marked_.size() != offsets_[n]) {
    throw std::invalid_argument("BLLAutomaton: one initial mark per (node, incidence) required");
  }
  marked_count_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < graph().degree(u); ++i) {
      if (marked_[slot(u, i)]) ++marked_count_[u];
    }
  }
}

BLLAutomaton BLLAutomaton::pr_labeling(const Graph& g, Orientation initial, NodeId destination) {
  std::vector<std::uint8_t> marks(2 * g.num_edges(), 0);
  return BLLAutomaton(g, std::move(initial), destination, std::move(marks));
}

BLLAutomaton BLLAutomaton::pr_labeling(const Instance& instance) {
  return pr_labeling(instance.graph, instance.make_orientation(), instance.destination);
}

BLLAutomaton BLLAutomaton::all_marked_labeling(const Graph& g, Orientation initial,
                                               NodeId destination) {
  std::vector<std::uint8_t> marks(2 * g.num_edges(), 1);
  return BLLAutomaton(g, std::move(initial), destination, std::move(marks));
}

std::size_t BLLAutomaton::incidence_index_of(NodeId u, NodeId v) const {
  const auto nbrs = graph().neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  assert(it != nbrs.end() && *it == v);
  return static_cast<std::size_t>(it - nbrs.begin());
}

std::vector<NodeId> BLLAutomaton::marked_neighbors(NodeId u) const {
  std::vector<NodeId> result;
  const auto nbrs = graph().neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (marked_[slot(u, i)]) result.push_back(nbrs[i]);
  }
  return result;
}

void BLLAutomaton::apply(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("BLLAutomaton::apply: precondition violated (not a sink)");
  }
  const auto nbrs = graph().neighbors(u);
  const auto edges = graph().incident_edges(u);
  const bool reverse_all = marked_count_[u] == nbrs.size();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (!reverse_all && marked_[slot(u, i)]) continue;
    const NodeId v = nbrs[i];
    orientation_.reverse_edge(edges[i]);
    const std::size_t vslot = slot(v, incidence_index_of(v, u));
    if (!marked_[vslot]) {
      marked_[vslot] = 1;
      ++marked_count_[v];
    }
  }
  for (std::size_t i = 0; i < nbrs.size(); ++i) marked_[slot(u, i)] = 0;
  marked_count_[u] = 0;
}

bool initial_labeling_preserves_acyclicity(const Graph& g, const std::vector<EdgeSense>& senses,
                                           NodeId destination,
                                           const std::vector<std::uint8_t>& initial_marks,
                                           std::size_t max_states) {
  // Exhaustive DFS over reachable (orientation, marks) states, keyed by the
  // automaton's state fingerprint.
  std::set<std::vector<std::uint8_t>> visited;
  std::vector<BLLAutomaton> stack;
  stack.emplace_back(g, Orientation(g, senses), destination, initial_marks);
  visited.insert(stack.back().state_fingerprint());

  while (!stack.empty()) {
    if (visited.size() > max_states) {
      throw std::runtime_error(
          "initial_labeling_preserves_acyclicity: state-space budget exceeded");
    }
    BLLAutomaton state = std::move(stack.back());
    stack.pop_back();
    if (!is_acyclic(state.orientation())) return false;
    for (const NodeId u : state.enabled_sinks()) {
      BLLAutomaton next = state;
      next.apply(u);
      if (visited.insert(next.state_fingerprint()).second) {
        stack.push_back(std::move(next));
      }
    }
  }
  return true;
}

}  // namespace lr
