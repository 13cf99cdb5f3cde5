#include "core/relations.hpp"

#include <algorithm>

namespace lr {

namespace {

/// list[u] ⊆ {v : v's edge had direction `allowed` from u in G'_init}.
bool list_within_initial(const PartialReversalState& s, NodeId u, Dir allowed) {
  const auto flags = s.list_flags(u);
  const auto edges = s.graph().incident_edges(u);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (flags[i] && s.initial_dir(u, edges[i]) != allowed) return false;
  }
  return true;
}

/// The constant set parity[u] selects in R: out-nbrs_u when even, in-nbrs_u
/// when odd.
Dir allowed_by_parity(const NewPRAutomaton& t, NodeId u) {
  return t.parity(u) == Parity::kEven ? Dir::kOut : Dir::kIn;
}

}  // namespace

bool clause_R_prime(const PartialReversalState& s, const PartialReversalState& t, NodeId u) {
  const auto a = s.list_flags(u);
  const auto b = t.list_flags(u);
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool clause_R(const PartialReversalState& s, const NewPRAutomaton& t, NodeId u) {
  return list_within_initial(s, u, allowed_by_parity(t, u));
}

bool clause_R_rev(const NewPRAutomaton& t, const PartialReversalState& s, NodeId u) {
  const Dir allowed = allowed_by_parity(t, u);
  if (list_within_initial(s, u, allowed)) return true;  // cases (1) and (2)
  // Cases (3) and (4): list[u] = nbrs_u and the constant set R would
  // confine it to is empty.
  if (!s.list_full(u)) return false;
  for (const EdgeId e : s.graph().incident_edges(u)) {
    if (s.initial_dir(u, e) == allowed) return false;
  }
  return true;
}

}  // namespace lr
