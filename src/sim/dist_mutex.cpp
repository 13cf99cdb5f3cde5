#include "sim/dist_mutex.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

namespace lr {

DistMutex::DistMutex(const Graph& topology, NodeId initial_holder, Network& network)
    : graph_(&topology), network_(&network), csr_(network.csr()) {
  if (&network.graph() != graph_) {
    throw std::invalid_argument("DistMutex: network must be built over the topology");
  }
  const std::size_t n = graph_->num_nodes();
  if (initial_holder >= n) {
    throw std::invalid_argument("DistMutex: initial holder out of range");
  }
  is_holder_.assign(n, 0);
  is_holder_[initial_holder] = 1;
  a_.assign(n, 0);
  b_.resize(n);
  for (NodeId u = 0; u < n; ++u) b_[u] = static_cast<std::int64_t>(u);
  b_[initial_holder] = -1;  // the holder is the global height minimum
  seq_.assign(n, 0);

  views_.resize(2 * csr_.num_edges());
  for (NodeId u = 0; u < n; ++u) {
    const CsrPos end = csr_.adjacency_end(u);
    for (CsrPos p = csr_.adjacency_begin(u); p < end; ++p) {
      const NodeId v = csr_.neighbor_at(p);
      views_[p] = View{a_[v], b_[v], 0};
    }
  }
  payload_scratch_.resize(n);
  grant_queue_.resize(n);
  pending_.resize(n);
  outstanding_.assign(n, 0);
  grants_.assign(n, 0);
  reversal_steps_.assign(n, 0);

  for (NodeId u = 0; u < n; ++u) {
    network_->set_handler(u, [this](const NetMessage& message) { on_message(message); });
  }
}

std::optional<NodeId> DistMutex::holder() const {
  for (NodeId u = 0; u < is_holder_.size(); ++u) {
    if (is_holder_[u] != 0) return u;
  }
  return std::nullopt;
}

std::size_t DistMutex::queued_requests() const {
  std::size_t total = 0;
  for (const auto& queue : grant_queue_) total += queue.size();
  return total;
}

std::uint64_t DistMutex::grants() const {
  std::uint64_t total = 0;
  for (const std::uint64_t g : grants_) total += g;
  return total;
}

std::uint64_t DistMutex::reversal_steps() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : reversal_steps_) total += s;
  return total;
}

std::size_t DistMutex::view_slot(NodeId u, NodeId neighbor) const {
  // Precondition: messages only arrive from topology neighbors, so the
  // position always exists.
  return *csr_.position_of(u, neighbor);
}

std::optional<NodeId> DistMutex::downhill_neighbor(NodeId u) const {
  const auto own = std::tuple(a_[u], b_[u], u);
  std::optional<NodeId> best;
  std::tuple<std::int64_t, std::int64_t, NodeId> best_height{};
  const CsrPos end = csr_.adjacency_end(u);
  for (CsrPos p = csr_.adjacency_begin(u); p < end; ++p) {
    const View& view = views_[p];
    const NodeId v = csr_.neighbor_at(p);
    const auto height = std::tuple(view.a, view.b, v);
    if (height < own && (!best || height < best_height)) {
      best = v;
      best_height = height;
    }
  }
  return best;
}

void DistMutex::reversal_step(NodeId u) {
  // Request-driven partial reversal: raise u above its lowest neighbors.
  const CsrPos begin = csr_.adjacency_begin(u);
  const CsrPos end = csr_.adjacency_end(u);
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
  ++reversal_steps_[u];
  broadcast_height(u);
}

void DistMutex::broadcast_height(NodeId u) {
  ++seq_[u];
  for (const NodeId v : csr_.neighbors(u)) {
    network_->send(u, v, {kHeight, a_[u], b_[u], seq_[u]});
  }
}

void DistMutex::request(NodeId u) {
  if (u >= graph_->num_nodes()) {
    throw std::invalid_argument("DistMutex::request: node out of range");
  }
  if (is_holder_[u] != 0 || outstanding_[u] != 0) return;
  outstanding_[u] = 1;
  pending_[u].push_back(QueuedRequest{u, {u}});
  try_forward_pending(u);
}

void DistMutex::try_forward_pending(NodeId u) {
  while (!pending_[u].empty()) {
    if (is_holder_[u] != 0) {
      grant_queue_[u].push_back(std::move(pending_[u].front()));
      pending_[u].pop_front();
      continue;
    }
    const auto next = downhill_neighbor(u);
    if (!next) {
      if (csr_.degree(u) == 0) return;  // isolated: nothing to do
      // Stuck local minimum with work to do: reverse and retry (a step
      // always produces a downhill neighbor).
      reversal_step(u);
      continue;
    }
    forward_request(u, std::move(pending_[u].front()));
    pending_[u].pop_front();
  }
}

void DistMutex::forward_request(NodeId u, QueuedRequest request) {
  const auto next = downhill_neighbor(u);
  std::vector<std::int64_t>& scratch = payload_scratch_[u];
  scratch.clear();
  scratch.push_back(kRequest);
  scratch.push_back(static_cast<std::int64_t>(request.origin));
  for (const NodeId hop : request.path) {
    scratch.push_back(static_cast<std::int64_t>(hop));
  }
  network_->send(u, *next, scratch);
}

void DistMutex::release() {
  const auto current = holder();
  if (!current) return;  // token in flight: nothing to release
  const NodeId h = *current;
  if (grant_queue_[h].empty()) return;
  QueuedRequest request = std::move(grant_queue_[h].front());
  grant_queue_[h].pop_front();
  if (request.origin == h) {  // stale self-request; try the next one
    release();
    return;
  }
  // Complete the recorded path with the holder itself, then send the token
  // back along it.
  if (request.path.empty() || request.path.back() != h) request.path.push_back(h);
  is_holder_[h] = 0;
  std::vector<std::int64_t>& scratch = payload_scratch_[h];
  scratch.clear();
  scratch.push_back(kToken);
  scratch.push_back(a_[h]);
  scratch.push_back(b_[h]);
  // Remaining path: everything except the holder.
  for (std::size_t i = 0; i + 1 < request.path.size(); ++i) {
    scratch.push_back(static_cast<std::int64_t>(request.path[i]));
  }
  const NodeId next_hop = request.path[request.path.size() - 2];
  network_->send(h, next_hop, scratch);

  // Queued paths end at h, which is no longer the holder: re-inject them as
  // pending requests at h so they re-route towards the token's new home
  // (extending their recorded paths hop by hop).
  while (!grant_queue_[h].empty()) {
    pending_[h].push_back(std::move(grant_queue_[h].front()));
    grant_queue_[h].pop_front();
  }
  try_forward_pending(h);
}

void DistMutex::on_message(const NetMessage& message) {
  switch (message.payload.at(0)) {
    case kHeight:
      handle_height(message.to, message);
      break;
    case kRequest:
      handle_request(message.to, message);
      break;
    case kToken:
      handle_token(message.to, message);
      break;
    default:
      break;  // unknown kind: ignore
  }
}

void DistMutex::handle_height(NodeId u, const NetMessage& message) {
  View& view = views_[view_slot(u, message.from)];
  if (message.payload.at(3) <= view.seq) return;  // stale or duplicate
  view.a = message.payload.at(1);
  view.b = message.payload.at(2);
  view.seq = message.payload.at(3);
  try_forward_pending(u);
}

void DistMutex::handle_request(NodeId u, const NetMessage& message) {
  QueuedRequest request;
  request.origin = static_cast<NodeId>(message.payload.at(1));
  for (std::size_t i = 2; i < message.payload.size(); ++i) {
    request.path.push_back(static_cast<NodeId>(message.payload[i]));
  }
  // Loop erasure: while the token is in flight a request can wander through
  // stale-view regions and revisit nodes.  Truncating back to the first
  // visit keeps every recorded path simple (<= n hops), which bounds both
  // the token's return trip and the message sizes.
  const auto revisit = std::find(request.path.begin(), request.path.end(), u);
  request.path.erase(revisit, request.path.end());
  request.path.push_back(u);
  pending_[u].push_back(std::move(request));
  try_forward_pending(u);
}

void DistMutex::handle_token(NodeId u, const NetMessage& message) {
  std::vector<NodeId> remaining;
  for (std::size_t i = 3; i < message.payload.size(); ++i) {
    remaining.push_back(static_cast<NodeId>(message.payload[i]));
  }
  if (remaining.empty() || remaining.back() != u) return;  // malformed: drop

  if (remaining.size() == 1) {
    // u is the grantee: drop just below the granting holder's height,
    // becoming the new global minimum.  Only u ever sets its own flag (the
    // old holder's was cleared by release() before the token left), so the
    // write stays inside u's shard.
    a_[u] = message.payload.at(1);
    b_[u] = message.payload.at(2) - 1;
    is_holder_[u] = 1;
    outstanding_[u] = 0;
    ++grants_[u];
    broadcast_height(u);
    try_forward_pending(u);  // locally stuck requests go to the grant queue
    return;
  }
  // Forward the token one hop further back along the request path.
  remaining.pop_back();
  std::vector<std::int64_t>& scratch = payload_scratch_[u];
  scratch.clear();
  scratch.push_back(kToken);
  scratch.push_back(message.payload.at(1));
  scratch.push_back(message.payload.at(2));
  for (const NodeId hop : remaining) {
    scratch.push_back(static_cast<std::int64_t>(hop));
  }
  network_->send(u, remaining.back(), scratch);
}

}  // namespace lr
