#include "core/full_reversal.hpp"

#include <stdexcept>

namespace lr {

void FullReversalAutomaton::apply(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("FullReversalAutomaton::apply: precondition violated (not a sink)");
  }
  for (const EdgeId e : graph().incident_edges(u)) orientation_.reverse_edge(e);
  ++count_[u];
}

void FullReversalSetAutomaton::apply(const Action& s) {
  for (const NodeId u : s) {
    if (!sink_enabled(u)) {
      throw std::logic_error(
          "FullReversalSetAutomaton::apply: precondition violated (not a sink)");
    }
    for (const EdgeId e : graph().incident_edges(u)) orientation_.reverse_edge(e);
  }
}

}  // namespace lr
