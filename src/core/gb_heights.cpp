#include "core/gb_heights.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/digraph_algos.hpp"

namespace lr {

namespace {

/// Heights decreasing along initial edges: node at topological position p
/// (edges go from earlier to later positions) gets value n-1-p, so every
/// initial edge points from the larger value to the smaller one.
std::vector<std::int64_t> initial_levels(const Orientation& o) {
  const auto order = topological_order(o);
  if (!order) {
    throw std::invalid_argument("GB heights: initial orientation must be acyclic");
  }
  std::vector<std::int64_t> level(order->size());
  const std::int64_t n = static_cast<std::int64_t>(order->size());
  for (std::int64_t pos = 0; pos < n; ++pos) {
    level[(*order)[static_cast<std::size_t>(pos)]] = n - 1 - pos;
  }
  return level;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pair heights (Full Reversal)
// ---------------------------------------------------------------------------

GBPairHeightsAutomaton::GBPairHeightsAutomaton(const Graph& g, Orientation initial,
                                               NodeId destination)
    : LinkReversalBase(g, std::move(initial), destination), a_(initial_levels(orientation_)) {}

GBPairHeightsAutomaton::GBPairHeightsAutomaton(const Instance& instance)
    : GBPairHeightsAutomaton(instance.graph, instance.make_orientation(), instance.destination) {}

void GBPairHeightsAutomaton::apply(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("GBPairHeightsAutomaton::apply: precondition violated (not a sink)");
  }
  std::int64_t max_a = std::numeric_limits<std::int64_t>::min();
  const auto nbrs = graph().neighbors(u);
  const auto edges = graph().incident_edges(u);
  for (const NodeId v : nbrs) max_a = std::max(max_a, a_[v]);
  a_[u] = max_a + 1;
  // Re-derive directions of u's incident edges from the new heights: u now
  // exceeds every neighbor, so all edges flip outward.
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (height(u) > height(nbrs[i])) orientation_.point_away_from(u, edges[i]);
  }
}

bool GBPairHeightsAutomaton::heights_consistent() const {
  for (EdgeId e = 0; e < graph().num_edges(); ++e) {
    if (height(orientation_.tail(e)) <= height(orientation_.head(e))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Triple heights (Partial Reversal)
// ---------------------------------------------------------------------------

GBTripleHeightsAutomaton::GBTripleHeightsAutomaton(const Graph& g, Orientation initial,
                                                   NodeId destination)
    : LinkReversalBase(g, std::move(initial), destination),
      a_(graph().num_nodes(), 0),
      b_(initial_levels(orientation_)) {}

GBTripleHeightsAutomaton::GBTripleHeightsAutomaton(const Instance& instance)
    : GBTripleHeightsAutomaton(instance.graph, instance.make_orientation(),
                               instance.destination) {}

void GBTripleHeightsAutomaton::apply(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("GBTripleHeightsAutomaton::apply: precondition violated (not a sink)");
  }
  std::int64_t min_a = std::numeric_limits<std::int64_t>::max();
  const auto nbrs = graph().neighbors(u);
  const auto edges = graph().incident_edges(u);
  for (const NodeId v : nbrs) min_a = std::min(min_a, a_[v]);
  const std::int64_t new_a = min_a + 1;
  std::int64_t min_b_at_new_a = std::numeric_limits<std::int64_t>::max();
  bool tie = false;
  for (const NodeId v : nbrs) {
    if (a_[v] == new_a) {
      tie = true;
      min_b_at_new_a = std::min(min_b_at_new_a, b_[v]);
    }
  }
  a_[u] = new_a;
  if (tie) b_[u] = min_b_at_new_a - 1;

  // Re-derive directions of u's incident edges from the updated heights.
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const NodeId v = nbrs[i];
    orientation_.point_away_from(height(u) > height(v) ? u : v, edges[i]);
  }
}

bool GBTripleHeightsAutomaton::heights_consistent() const {
  for (EdgeId e = 0; e < graph().num_edges(); ++e) {
    if (height(orientation_.tail(e)) <= height(orientation_.head(e))) return false;
  }
  return true;
}

}  // namespace lr
