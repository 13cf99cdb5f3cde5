#include "routing/dynamic_heights.hpp"

#include <algorithm>
#include <stdexcept>

namespace lr {

DynamicHeightsDag::DynamicHeightsDag(std::size_t num_nodes, NodeId destination)
    : destination_(destination),
      adj_(num_nodes),
      a_(num_nodes, 0),
      b_(num_nodes),
      out_degree_(num_nodes, 0),
      member_(num_nodes, 0),
      mark_(num_nodes, 0) {
  if (destination >= num_nodes) {
    throw std::invalid_argument("DynamicHeightsDag: destination out of range");
  }
  // Distinct b values make the initial height order total and deterministic.
  // Ascending in id, so orienting towards a high-id destination (e.g. a
  // newly elected leader) genuinely exercises reversals.
  for (NodeId u = 0; u < num_nodes; ++u) b_[u] = static_cast<std::int64_t>(u);
  member_[destination] = epoch_;  // with no links the component is {destination}
}

DynamicHeightsDag::DynamicHeightsDag(const Graph& topology, NodeId destination)
    : DynamicHeightsDag(topology.num_nodes(), destination) {
  // Graph::neighbors is ascending, so the lists start sorted.  Initial
  // heights are (0, id): every link points from its larger id down.
  for (NodeId u = 0; u < num_nodes(); ++u) {
    const auto nbrs = topology.neighbors(u);
    adj_[u].assign(nbrs.begin(), nbrs.end());
    for (const NodeId v : nbrs) {
      if (v < u) ++out_degree_[u];
    }
  }
  absorb(destination_);
}

void DynamicHeightsDag::set_destination(NodeId d) {
  if (d >= num_nodes()) {
    throw std::invalid_argument("DynamicHeightsDag::set_destination: out of range");
  }
  if (d == destination_) return;
  const NodeId old = destination_;
  destination_ = d;  // heights (and thus directions) are unaffected
  if (routable(d)) {
    note_sink(old);  // same component: only the old destination can now be a sink
    return;
  }
  // A new component: relabel it under a fresh epoch, noting its sinks.
  ++epoch_;
  oriented_ = true;
  absorb(d);
}

void DynamicHeightsDag::add_link(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes() || u == v) {
    throw std::invalid_argument("DynamicHeightsDag::add_link: bad endpoints");
  }
  auto& list_u = adj_[u];
  const auto at_u = std::lower_bound(list_u.begin(), list_u.end(), v);
  if (at_u != list_u.end() && *at_u == v) return;  // already present
  list_u.insert(at_u, v);
  auto& list_v = adj_[v];
  list_v.insert(std::lower_bound(list_v.begin(), list_v.end(), u), u);
  ++out_degree_[directed_from(u, v) ? u : v];
  ++snapshot_patches_;
  // A link creates no sink inside a component.  Joining another component
  // to the destination's brings that side's sinks in.
  if (routable(u) != routable(v)) absorb(routable(u) ? v : u);
}

void DynamicHeightsDag::remove_link(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    throw std::invalid_argument("DynamicHeightsDag::remove_link: bad endpoints");
  }
  auto& list_u = adj_[u];
  const auto at_u = std::lower_bound(list_u.begin(), list_u.end(), v);
  if (at_u == list_u.end() || *at_u != v) return;  // absent
  list_u.erase(at_u);
  auto& list_v = adj_[v];
  list_v.erase(std::lower_bound(list_v.begin(), list_v.end(), u));
  const NodeId higher = directed_from(u, v) ? u : v;
  --out_degree_[higher];
  ++snapshot_patches_;
  if (!routable(u)) return;  // another component: the destination's is unchanged
  // On an oriented component every node keeps a descending path to the
  // destination unless `higher` just lost its last out-link
  // (docs/ARCHITECTURE.md, src/routing), so only then can it split.
  if (!oriented_ || out_degree_[higher] == 0) split_search(u, v);
  note_sink(higher);  // the lower endpoint kept its out-links
}

bool DynamicHeightsDag::has_link(NodeId u, NodeId v) const {
  if (u >= num_nodes()) return false;
  return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
}

void DynamicHeightsDag::note_sink(NodeId u) {
  if (u == destination_ || !routable(u) || !is_sink(u)) return;
  pending_.push_back(u);
  oriented_ = false;
}

void DynamicHeightsDag::absorb(NodeId root) {
  frontier_.assign(1, root);
  member_[root] = epoch_;
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const NodeId x = frontier_[head];
    ++maintenance_visits_;
    note_sink(x);
    for (const NodeId y : adj_[x]) {
      if (member_[y] != epoch_) {
        member_[y] = epoch_;
        frontier_.push_back(y);
      }
    }
  }
}

void DynamicHeightsDag::split_search(NodeId u, NodeId v) {
  // Two BFS searches, from u and from v, advance one neighbour scan each
  // per round.  Reaching a node the other side holds proves the
  // component intact.  A side whose queue runs dry first has found all of
  // its (now separate) component, after at most as many scans as that
  // side's degree sum, so the other side scanned no more.
  ++search_;
  const std::uint64_t mark[2] = {2 * search_, 2 * search_ + 1};
  std::size_t head[2] = {0, 0};
  std::size_t scan[2] = {0, 0};
  const NodeId start[2] = {u, v};
  for (int s = 0; s < 2; ++s) {
    side_[s].assign(1, start[s]);
    mark_[start[s]] = mark[s];
    ++maintenance_visits_;
  }
  const auto exhausted = [&](int s) {
    while (head[s] < side_[s].size() && scan[s] == adj_[side_[s][head[s]]].size()) {
      ++head[s];
      scan[s] = 0;
    }
    return head[s] == side_[s].size();
  };
  int closed = -1;
  while (closed < 0) {
    if (exhausted(0)) {
      closed = 0;
    } else if (exhausted(1)) {
      closed = 1;
    } else {
      for (int s = 0; s < 2; ++s) {
        const NodeId y = adj_[side_[s][head[s]]][scan[s]++];
        if (mark_[y] == mark[1 - s]) return;  // the sides met: no split
        if (mark_[y] != mark[s]) {
          mark_[y] = mark[s];
          side_[s].push_back(y);
          ++maintenance_visits_;
        }
      }
    }
  }
  // The closed side is a whole component now.  If it holds the destination
  // it becomes the component under a fresh epoch (the other side drops out
  // with its old stamp); otherwise it leaves.
  const bool keeps_destination = mark_[destination_] == mark[closed];
  if (keeps_destination) ++epoch_;
  const std::uint64_t stamp = keeps_destination ? epoch_ : 0;
  for (const NodeId x : side_[closed]) member_[x] = stamp;
}

void DynamicHeightsDag::partial_reversal_step(NodeId u) {
  // u is a sink: every neighbour is higher and counts u among its
  // out-links.  The Gafni-Bertsekas update sets a(u) to one above the
  // lowest neighbour level `low`, and b(u) to one below the smallest b at
  // level low + 1 when some neighbour sits there.
  const std::span<const NodeId> slice = adj_[u];
  // Scan 1: `low`, the smallest b at `low`, and the smallest b at `low + 1`.
  // A neighbour one level below `low` demotes the minimum at `low` to the
  // level above the new one.  (`low - 1` and `a - 1` are formed only where
  // they cannot overflow.)
  std::int64_t low = a_[slice.front()];
  std::int64_t b_low = b_[slice.front()];
  std::int64_t b_next = 0;
  bool has_next = false;
  for (const NodeId v : slice.subspan(1)) {
    const std::int64_t a = a_[v];
    const std::int64_t b = b_[v];
    if (a < low) {
      has_next = a == low - 1;
      b_next = b_low;
      low = a;
      b_low = b;
    } else if (a == low) {
      b_low = std::min(b_low, b);
    } else if (a - 1 == low && (!has_next || b < b_next)) {
      has_next = true;
      b_next = b;
    }
  }
  a_[u] = low + 1;
  if (has_next) b_[u] = b_next - 1;
  // Scan 2: u now sits above exactly the neighbours at `low` and below the
  // rest, so only the links to `low` flip.  Each moves one out-degree from
  // its neighbour to u, and a neighbour left with none is a new sink,
  // queued in ascending id order.  u keeps those out-links, so it is no
  // sink after its step.
  std::uint32_t flipped = 0;
  for (const NodeId v : slice) {
    if (a_[v] != low) continue;
    ++flipped;
    if (--out_degree_[v] == 0 && v != destination_ && routable(v)) work_.push(v);
  }
  out_degree_[u] += flipped;
  ++total_reversals_;
}

std::uint64_t DynamicHeightsDag::stabilize() {
  // Seed with the pending candidates in ascending id order, filtered like
  // an all-n sink scan: pending_ holds every non-destination sink of the
  // component (and perhaps some stale entries), so the work-list and hence
  // the reversal sequence are the ones that scan would produce.  From
  // there each step queues the sinks it makes among its neighbours, the
  // only nodes it can sink.
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
  maintenance_visits_ += pending_.size();
  for (const NodeId u : pending_) {
    if (u != destination_ && routable(u) && is_sink(u)) work_.push(u);
  }
  pending_.clear();
  std::uint64_t steps = 0;
  while (!work_.empty()) {
    const NodeId u = work_.front();
    work_.pop();
    if (u == destination_ || !is_sink(u)) continue;
    partial_reversal_step(u);
    ++steps;
  }
  oriented_ = true;
  return steps;
}

std::optional<NodeId> DynamicHeightsDag::next_hop(NodeId u) const {
  if (u == destination_) return std::nullopt;
  std::optional<NodeId> best;
  for (const NodeId v : adj_[u]) {
    if (!directed_from(u, v)) continue;
    if (!best || height(v) < height(*best)) best = v;
  }
  return best;
}

std::optional<std::vector<NodeId>> DynamicHeightsDag::route(NodeId u) const {
  std::vector<NodeId> path{u};
  NodeId current = u;
  // Heights strictly decrease along the path, so it cannot loop; bound by n
  // anyway as a defensive measure.
  for (std::size_t hops = 0; hops <= num_nodes(); ++hops) {
    if (current == destination_) return path;
    const auto next = next_hop(current);
    if (!next) return std::nullopt;
    current = *next;
    path.push_back(current);
  }
  return std::nullopt;
}

}  // namespace lr
