#include "core/newpr.hpp"

#include <stdexcept>

namespace lr {

void NewPRAutomaton::apply(NodeId u) {
  if (!sink_enabled(u)) {
    throw std::logic_error("NewPRAutomaton::apply: precondition violated (not a sink)");
  }
  const Dir selected = parity(u) == Parity::kEven ? Dir::kIn : Dir::kOut;
  bool reversed_any = false;
  for (const EdgeId e : graph().incident_edges(u)) {
    if (initial_dir(u, e) == selected) {
      // dir[u, v] := out; dir[v, u] := in.  u is a sink, so every incident
      // edge currently points at u and this is a genuine reversal.
      orientation_.reverse_edge(e);
      reversed_any = true;
    }
  }
  if (!reversed_any) ++dummy_steps_;
  ++count_[u];
  ++total_steps_;
}

}  // namespace lr
