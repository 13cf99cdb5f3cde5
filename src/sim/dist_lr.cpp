#include "sim/dist_lr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/digraph_algos.hpp"

namespace lr {

namespace {

/// Topological levels of the initial orientation, decreasing along edges
/// (same construction as the centralized GB automata).
std::vector<std::int64_t> initial_levels(const Orientation& o) {
  const auto order = topological_order(o);
  if (!order) {
    throw std::invalid_argument("DistLinkReversal: initial orientation must be acyclic");
  }
  std::vector<std::int64_t> level(order->size());
  const std::int64_t n = static_cast<std::int64_t>(order->size());
  for (std::int64_t pos = 0; pos < n; ++pos) {
    level[(*order)[static_cast<std::size_t>(pos)]] = n - 1 - pos;
  }
  return level;
}

}  // namespace

DistLinkReversal::DistLinkReversal(const Instance& instance, ReversalRule rule, Network& network)
    : DistLinkReversal(instance, rule, network, network.csr()) {}

DistLinkReversal::DistLinkReversal(const Instance& instance, ReversalRule rule, Network& network,
                                   const CsrGraph& frozen)
    : graph_(&instance.graph),
      network_(&network),
      rule_(rule),
      destination_(instance.destination),
      csr_(frozen) {
  if (&network.graph() != graph_) {
    throw std::invalid_argument("DistLinkReversal: network must be built over the instance graph");
  }
  const std::size_t n = graph_->num_nodes();
  if (csr_.num_nodes() != n || csr_.num_edges() != graph_->num_edges()) {
    throw std::invalid_argument(
        "DistLinkReversal: frozen CSR snapshot does not match the instance");
  }
  const auto levels = initial_levels(instance.make_orientation());

  if (rule_ == ReversalRule::kFull) {
    a_ = levels;
    b_.assign(n, 0);
  } else {
    a_.assign(n, 0);
    b_ = levels;
  }

  view_a_.resize(2 * csr_.num_edges());
  view_b_.resize(2 * csr_.num_edges());
  for (NodeId u = 0; u < n; ++u) {
    const CsrPos end = csr_.adjacency_end(u);
    for (CsrPos p = csr_.adjacency_begin(u); p < end; ++p) {
      view_a_[p] = a_[csr_.neighbor_at(p)];
      view_b_[p] = b_[csr_.neighbor_at(p)];
    }
  }
  steps_.assign(n, 0);

  for (NodeId u = 0; u < n; ++u) {
    network_->set_handler(u, [this](const NetMessage& message) { on_message(message); });
  }
}

void DistLinkReversal::start() {
  for (NodeId u = 0; u < graph_->num_nodes(); ++u) maybe_step(u);
}

bool DistLinkReversal::locally_sink(NodeId u) const {
  // All neighbor heights (as viewed by u) are lexicographically above u's.
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
  if (begin == end) return false;
  const auto own = std::tuple(a_[u], b_[u], u);
  for (CsrPos p = begin; p < end; ++p) {
    if (std::tuple(view_a_[p], view_b_[p], csr_.neighbor_at(p)) < own) return false;
  }
  return true;
}

void DistLinkReversal::maybe_step(NodeId u) {
  if (u == destination_ || !locally_sink(u)) return;
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);

  if (rule_ == ReversalRule::kFull) {
    std::int64_t max_a = std::numeric_limits<std::int64_t>::min();
    for (CsrPos p = begin; p < end; ++p) max_a = std::max(max_a, view_a_[p]);
    a_[u] = max_a + 1;
  } else {
    std::int64_t min_a = std::numeric_limits<std::int64_t>::max();
    for (CsrPos p = begin; p < end; ++p) min_a = std::min(min_a, view_a_[p]);
    const std::int64_t new_a = min_a + 1;
    std::int64_t min_b = std::numeric_limits<std::int64_t>::max();
    bool tie = false;
    for (CsrPos p = begin; p < end; ++p) {
      if (view_a_[p] == new_a) {
        tie = true;
        min_b = std::min(min_b, view_b_[p]);
      }
    }
    a_[u] = new_a;
    if (tie) b_[u] = min_b - 1;
  }
  ++steps_[u];
  broadcast_height(u);
}

void DistLinkReversal::broadcast_height(NodeId u) {
  for (const NodeId v : csr_.neighbors(u)) {
    network_->send(u, v, {a_[u], b_[u]});
  }
}

std::uint64_t DistLinkReversal::resync_round() {
  const std::uint64_t before = network_->messages_sent();
  for (NodeId u = 0; u < graph_->num_nodes(); ++u) {
    broadcast_height(u);
  }
  return network_->messages_sent() - before;
}

std::optional<std::size_t> DistLinkReversal::run_with_resync(std::size_t max_rounds) {
  start();
  network_->run_until_idle();
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (converged()) return round;
    resync_round();
    network_->run_until_idle();
  }
  return converged() ? std::optional<std::size_t>{max_rounds} : std::nullopt;
}

void DistLinkReversal::notify_link_restored(EdgeId e) {
  const NodeId u = graph_->edge_u(e);
  const NodeId v = graph_->edge_v(e);
  network_->send(u, v, {a_[u], b_[u]});
  network_->send(v, u, {a_[v], b_[v]});
}

void DistLinkReversal::on_message(const NetMessage& message) {
  const NodeId u = message.to;
  const NodeId from = message.from;
  const auto position = csr_.position_of(u, from);
  if (!position) return;  // not a neighbor: ignore
  const std::size_t slot = *position;

  // Heights only increase: a stale (re-ordered) UPDATE must not regress the
  // view.
  const auto incoming = std::tuple(message.payload.at(0), message.payload.at(1), from);
  const auto current = std::tuple(view_a_[slot], view_b_[slot], from);
  if (incoming <= current) return;
  view_a_[slot] = message.payload[0];
  view_b_[slot] = message.payload[1];

  maybe_step(u);
}

std::uint64_t DistLinkReversal::total_steps() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : steps_) total += s;
  return total;
}

std::optional<NodeId> DistLinkReversal::best_out_neighbor_view(NodeId u) const {
  const auto own = std::tuple(a_[u], b_[u], u);
  std::optional<NodeId> best;
  std::tuple<std::int64_t, std::int64_t, NodeId> best_height{};
  const CsrPos end = csr_.adjacency_end(u);
  for (CsrPos p = csr_.adjacency_begin(u); p < end; ++p) {
    const auto viewed = std::tuple(view_a_[p], view_b_[p], csr_.neighbor_at(p));
    if (viewed < own && (!best || viewed < best_height)) {
      best = csr_.neighbor_at(p);
      best_height = viewed;
    }
  }
  return best;
}

Orientation DistLinkReversal::derived_orientation() const {
  std::vector<EdgeSense> senses(graph_->num_edges());
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    const NodeId u = graph_->edge_u(e);
    const NodeId v = graph_->edge_v(e);
    // Points from the higher height to the lower one.
    senses[e] = std::tuple(a_[u], b_[u], u) > std::tuple(a_[v], b_[v], v) ? EdgeSense::kForward
                                                                          : EdgeSense::kBackward;
  }
  return Orientation(*graph_, std::move(senses));
}

bool DistLinkReversal::converged() const {
  return is_destination_oriented(derived_orientation(), destination_);
}

}  // namespace lr
