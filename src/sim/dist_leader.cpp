#include "sim/dist_leader.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace lr {

DistLeaderElection::DistLeaderElection(const Graph& topology, Network& network)
    : graph_(&topology), network_(&network), csr_(network.csr()) {
  if (&network.graph() != graph_) {
    throw std::invalid_argument("DistLeaderElection: network must be built over the topology");
  }
  const std::size_t n = graph_->num_nodes();
  candidate_.resize(n);
  a_.assign(n, 0);
  b_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    candidate_[u] = u;  // everyone starts believing in itself
    b_[u] = static_cast<std::int64_t>(u);
  }
  adoptions_.assign(n, 0);
  height_steps_.assign(n, 0);
  views_.resize(2 * csr_.num_edges());
  for (NodeId u = 0; u < n; ++u) {
    const CsrPos end = csr_.adjacency_end(u);
    for (CsrPos p = csr_.adjacency_begin(u); p < end; ++p) {
      const NodeId v = csr_.neighbor_at(p);
      views_[p] = View{v, a_[v], b_[v]};
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    network_->set_handler(u, [this](const NetMessage& message) { on_message(message); });
  }
}

void DistLeaderElection::start() {
  // Views start exact, so no initial broadcast is needed; every node just
  // evaluates its first action (adopt the best neighboring candidate, or
  // fire a PR step if it is an initial non-leader sink).
  for (NodeId u = 0; u < graph_->num_nodes(); ++u) maybe_act(u);
}

std::optional<NodeId> DistLeaderElection::agreed_leader() const {
  const NodeId first = candidate_.empty() ? kNoNode : candidate_[0];
  for (const NodeId c : candidate_) {
    if (c != first) return std::nullopt;
  }
  return first;
}

bool DistLeaderElection::leader_is_unique_sink() const {
  const auto leader = agreed_leader();
  if (!leader) return false;
  // Direction by actual heights (valid once candidates agree): node u is a
  // sink iff its height is below all its neighbors'.
  std::size_t sinks = 0;
  bool leader_sink = false;
  for (NodeId u = 0; u < csr_.num_nodes(); ++u) {
    const CsrPos begin = csr_.adjacency_begin(u);
    const CsrPos end = csr_.adjacency_end(u);
    if (begin == end) continue;
    bool below_all = true;
    for (CsrPos p = begin; p < end; ++p) {
      const NodeId v = csr_.neighbor_at(p);
      if (std::tuple(a_[u], b_[u], u) > std::tuple(a_[v], b_[v], v)) {
        below_all = false;
        break;
      }
    }
    if (below_all) {
      ++sinks;
      if (u == *leader) leader_sink = true;
    }
  }
  return sinks == 1 && leader_sink;
}

std::size_t DistLeaderElection::view_slot(NodeId u, NodeId neighbor) const {
  // Precondition: messages only arrive from topology neighbors, so the
  // position always exists.
  return *csr_.position_of(u, neighbor);
}

bool DistLeaderElection::height_below_all_neighbors(NodeId u) const {
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
  if (begin == end) return false;
  const auto own = std::tuple(a_[u], b_[u], u);
  for (CsrPos p = begin; p < end; ++p) {
    const View& view = views_[p];
    // A PR step is only meaningful among nodes that agree on the candidate.
    if (view.candidate != candidate_[u]) return false;
    if (std::tuple(view.a, view.b, csr_.neighbor_at(p)) < own) return false;
  }
  return true;
}

void DistLeaderElection::maybe_act(NodeId u) {
  // 1. Adopt the best candidate any neighbor reports.
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
  CsrPos best_slot = begin;
  NodeId best_candidate = candidate_[u];
  for (CsrPos p = begin; p < end; ++p) {
    if (views_[p].candidate > best_candidate) {
      best_candidate = views_[p].candidate;
      best_slot = p;
    }
  }
  if (best_candidate > candidate_[u]) {
    candidate_[u] = best_candidate;
    // Re-orient towards the adoptee's region: land just above the neighbor
    // we heard it from, so our edge points at them.
    a_[u] = views_[best_slot].a;
    b_[u] = views_[best_slot].b + 1;
    ++adoptions_[u];
    broadcast(u);
    return;
  }

  // 2. Ordinary partial-reversal step when u is a non-leader local sink.
  if (candidate_[u] == u || !height_below_all_neighbors(u)) return;
  std::int64_t min_a = std::numeric_limits<std::int64_t>::max();
  for (CsrPos p = begin; p < end; ++p) min_a = std::min(min_a, views_[p].a);
  const std::int64_t new_a = min_a + 1;
  std::int64_t min_b = std::numeric_limits<std::int64_t>::max();
  bool tie = false;
  for (CsrPos p = begin; p < end; ++p) {
    if (views_[p].a == new_a) {
      tie = true;
      min_b = std::min(min_b, views_[p].b);
    }
  }
  a_[u] = new_a;
  if (tie) b_[u] = min_b - 1;
  ++height_steps_[u];
  broadcast(u);
}

std::uint64_t DistLeaderElection::candidate_adoptions() const {
  std::uint64_t total = 0;
  for (const std::uint64_t a : adoptions_) total += a;
  return total;
}

std::uint64_t DistLeaderElection::height_steps() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : height_steps_) total += s;
  return total;
}

void DistLeaderElection::broadcast(NodeId u) {
  for (const NodeId v : csr_.neighbors(u)) {
    network_->send(u, v, {static_cast<std::int64_t>(candidate_[u]), a_[u], b_[u]});
  }
}

void DistLeaderElection::on_message(const NetMessage& message) {
  const NodeId u = message.to;
  const NodeId from = message.from;
  const std::size_t slot = view_slot(u, from);
  View& view = views_[slot];
  // (candidate, a, b) grows monotonically per sender, so this filter drops
  // stale re-ordered messages.
  const auto incoming = std::tuple(static_cast<NodeId>(message.payload.at(0)),
                                   message.payload.at(1), message.payload.at(2));
  const auto current = std::tuple(view.candidate, view.a, view.b);
  if (incoming <= current) return;
  view.candidate = static_cast<NodeId>(message.payload[0]);
  view.a = message.payload[1];
  view.b = message.payload[2];
  maybe_act(u);
}

}  // namespace lr
