#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

/// \file dynamic_heights_oracle.hpp
/// Test oracle for routing/dynamic_heights.hpp: the whole-graph
/// `DynamicHeightsDag` it replaced, plus the service logic that drives it.
///
/// The oracle keeps the link set as a sorted canonical edge list and
/// rebuilds a `CsrGraph` snapshot from it on the first query after any
/// change.  `stabilize()` recomputes the destination's component by BFS
/// and seeds its work-list with an all-n sink scan; `routable()` is a BFS
/// per call.  That is O(n + m) per event, and it shares no maintenance
/// code with the event-proportional class, so the differential tests in
/// tests/dynamic_heights_test.cpp compare two independent
/// implementations.  (The replaced class also patched its snapshot in
/// place per link; it was byte-identical to this rebuild path by
/// construction, so the oracle keeps only the rebuild.)
///
/// `Tora`, `Mutex` and `Leader` repeat the logic of `ToraRouter`,
/// `LinkReversalMutex` and `LeaderElectionService` over the oracle DAG,
/// with the router's original all-n flush scan.

namespace lr::oracle {

/// The whole-graph dynamic heights DAG; see the file comment.
class DynamicHeightsDag {
 public:
  DynamicHeightsDag(std::size_t num_nodes, NodeId destination)
      : destination_(destination), a_(num_nodes, 0), b_(num_nodes) {
    if (destination >= num_nodes) {
      throw std::invalid_argument("oracle::DynamicHeightsDag: destination out of range");
    }
    for (NodeId u = 0; u < num_nodes; ++u) b_[u] = static_cast<std::int64_t>(u);
  }

  DynamicHeightsDag(const Graph& topology, NodeId destination)
      : DynamicHeightsDag(topology.num_nodes(), destination) {
    links_.assign(topology.edges().begin(), topology.edges().end());
    std::sort(links_.begin(), links_.end());
  }

  std::size_t num_nodes() const noexcept { return a_.size(); }
  NodeId destination() const noexcept { return destination_; }

  void set_destination(NodeId d) {
    if (d >= num_nodes()) {
      throw std::invalid_argument("oracle::DynamicHeightsDag::set_destination: out of range");
    }
    destination_ = d;
  }

  void add_link(NodeId u, NodeId v) {
    if (u >= num_nodes() || v >= num_nodes() || u == v) {
      throw std::invalid_argument("oracle::DynamicHeightsDag::add_link: bad endpoints");
    }
    const auto link = canonical(u, v);
    const auto it = std::lower_bound(links_.begin(), links_.end(), link);
    if (it != links_.end() && *it == link) return;
    links_.insert(it, link);
    stale_ = true;
  }

  void remove_link(NodeId u, NodeId v) {
    if (u >= num_nodes() || v >= num_nodes()) {
      throw std::invalid_argument("oracle::DynamicHeightsDag::remove_link: bad endpoints");
    }
    const auto link = canonical(u, v);
    const auto it = std::lower_bound(links_.begin(), links_.end(), link);
    if (it == links_.end() || *it != link) return;
    links_.erase(it);
    stale_ = true;
  }

  bool has_link(NodeId u, NodeId v) const {
    return std::binary_search(links_.begin(), links_.end(), canonical(u, v));
  }

  std::tuple<std::int64_t, std::int64_t, NodeId> height(NodeId u) const {
    return {a_[u], b_[u], u};
  }

  bool directed_from(NodeId u, NodeId v) const { return height(u) > height(v); }

  bool is_sink(NodeId u) const {
    ensure_snapshot();
    return csr_.degree(u) > 0 && out_degree_[u] == 0;
  }

  std::uint64_t stabilize() {
    ensure_snapshot();
    const auto in_component = destination_component();
    std::uint64_t steps = 0;
    std::queue<NodeId> candidates;
    for (NodeId u = 0; u < num_nodes(); ++u) {
      if (u != destination_ && in_component[u] && is_sink(u)) candidates.push(u);
    }
    while (!candidates.empty()) {
      const NodeId u = candidates.front();
      candidates.pop();
      if (u == destination_ || !is_sink(u)) continue;
      partial_reversal_step(u);
      ++steps;
      for (const NodeId v : csr_.neighbors(u)) {
        if (v != destination_ && in_component[v] && is_sink(v)) candidates.push(v);
      }
      if (is_sink(u)) candidates.push(u);
    }
    return steps;
  }

  bool routable(NodeId u) const { return destination_component()[u]; }

  std::optional<NodeId> next_hop(NodeId u) const {
    if (u == destination_) return std::nullopt;
    ensure_snapshot();
    std::optional<NodeId> best;
    for (const NodeId v : csr_.neighbors(u)) {
      if (!directed_from(u, v)) continue;
      if (!best || height(v) < height(*best)) best = v;
    }
    return best;
  }

  std::optional<std::vector<NodeId>> route(NodeId u) const {
    std::vector<NodeId> path{u};
    NodeId current = u;
    for (std::size_t hops = 0; hops <= num_nodes(); ++hops) {
      if (current == destination_) return path;
      const auto next = next_hop(current);
      if (!next) return std::nullopt;
      current = *next;
      path.push_back(current);
    }
    return std::nullopt;
  }

  std::uint64_t total_reversals() const noexcept { return total_reversals_; }

  std::span<const NodeId> neighbors(NodeId u) const {
    ensure_snapshot();
    return csr_.neighbors(u);
  }

 private:
  static std::pair<NodeId, NodeId> canonical(NodeId u, NodeId v) {
    return u < v ? std::pair{u, v} : std::pair{v, u};
  }

  void ensure_snapshot() const {
    if (!stale_) return;
    csr_ = CsrGraph(Graph(num_nodes(), links_));
    out_degree_.assign(num_nodes(), 0);
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (const NodeId v : csr_.neighbors(u)) {
        if (directed_from(u, v)) ++out_degree_[u];
      }
    }
    stale_ = false;
  }

  void partial_reversal_step(NodeId u) {
    const auto slice = csr_.neighbors(u);
    for (const NodeId v : slice) {
      if (directed_from(u, v)) {
        --out_degree_[u];
      } else {
        --out_degree_[v];
      }
    }
    std::int64_t min_a = std::numeric_limits<std::int64_t>::max();
    for (const NodeId v : slice) min_a = std::min(min_a, a_[v]);
    const std::int64_t new_a = min_a + 1;
    std::int64_t min_b = std::numeric_limits<std::int64_t>::max();
    bool tie = false;
    for (const NodeId v : slice) {
      if (a_[v] == new_a) {
        tie = true;
        min_b = std::min(min_b, b_[v]);
      }
    }
    a_[u] = new_a;
    if (tie) b_[u] = min_b - 1;
    for (const NodeId v : slice) {
      if (directed_from(u, v)) {
        ++out_degree_[u];
      } else {
        ++out_degree_[v];
      }
    }
    ++total_reversals_;
  }

  std::vector<bool> destination_component() const {
    ensure_snapshot();
    std::vector<bool> in_component(num_nodes(), false);
    std::queue<NodeId> frontier;
    in_component[destination_] = true;
    frontier.push(destination_);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const NodeId v : csr_.neighbors(u)) {
        if (!in_component[v]) {
          in_component[v] = true;
          frontier.push(v);
        }
      }
    }
    return in_component;
  }

  NodeId destination_;
  std::vector<std::pair<NodeId, NodeId>> links_;
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::uint64_t total_reversals_ = 0;
  mutable CsrGraph csr_;
  mutable std::vector<std::uint32_t> out_degree_;
  mutable bool stale_ = true;
};

/// `ToraRouter` over the oracle DAG, flushing by an all-n scan.  Its
/// counters mirror `ToraStats` field for field.
class Tora {
 public:
  Tora(const Graph& topology, NodeId destination)
      : dag_(topology, destination), buffer_(topology.num_nodes(), 0) {
    reversals += dag_.stabilize();
  }

  void link_up(NodeId u, NodeId v) {
    dag_.add_link(u, v);
    ++link_events;
    reversals += dag_.stabilize();
    flush_buffers();
  }

  void link_down(NodeId u, NodeId v) {
    dag_.remove_link(u, v);
    ++link_events;
    reversals += dag_.stabilize();
    flush_buffers();
  }

  bool send_packet(NodeId source) {
    ++packets_sent;
    const auto path = dag_.route(source);
    if (!path) {
      ++buffer_[source];
      ++packets_buffered;
      return false;
    }
    ++packets_delivered;
    total_hops += path->size() - 1;
    return true;
  }

  std::size_t buffered_packets() const {
    std::size_t total = 0;
    for (const std::uint32_t count : buffer_) total += count;
    return total;
  }

  const DynamicHeightsDag& dag() const noexcept { return dag_; }

  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_buffered = 0;
  std::uint64_t packets_flushed = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t link_events = 0;
  std::uint64_t reversals = 0;

 private:
  void flush_buffers() {
    for (NodeId source = 0; source < buffer_.size(); ++source) {
      while (buffer_[source] > 0) {
        const auto path = dag_.route(source);
        if (!path) break;
        --buffer_[source];
        ++packets_flushed;
        ++packets_delivered;
        total_hops += path->size() - 1;
      }
    }
  }

  DynamicHeightsDag dag_;
  std::vector<std::uint32_t> buffer_;
};

/// `LinkReversalMutex` over the oracle DAG.
class Mutex {
 public:
  Mutex(const Graph& topology, NodeId initial_holder)
      : dag_(topology, initial_holder), pending_(topology.num_nodes(), false) {
    dag_.stabilize();
  }

  NodeId holder() const noexcept { return dag_.destination(); }

  std::size_t request(NodeId u) {
    if (u == holder() || pending_[u]) return 0;
    const auto path = dag_.route(u);
    if (!path) throw std::logic_error("oracle::Mutex::request: no route to token holder");
    pending_[u] = true;
    queue_.push_back(u);
    ++requests;
    total_request_hops += path->size() - 1;
    return path->size() - 1;
  }

  NodeId release() {
    if (queue_.empty()) return holder();
    const NodeId next = queue_.front();
    queue_.pop_front();
    pending_[next] = false;
    const std::uint64_t before = dag_.total_reversals();
    dag_.set_destination(next);
    dag_.stabilize();
    total_reversals += dag_.total_reversals() - before;
    ++grants;
    return next;
  }

  void link_up(NodeId u, NodeId v) {
    dag_.add_link(u, v);
    dag_.stabilize();
  }

  void link_down(NodeId u, NodeId v) {
    dag_.remove_link(u, v);
    dag_.stabilize();
  }

  const DynamicHeightsDag& dag() const noexcept { return dag_; }

  std::uint64_t requests = 0;
  std::uint64_t grants = 0;
  std::uint64_t total_request_hops = 0;
  std::uint64_t total_reversals = 0;

 private:
  DynamicHeightsDag dag_;
  std::deque<NodeId> queue_;
  std::vector<bool> pending_;
};

/// `LeaderElectionService` over the oracle DAG.
class Leader {
 public:
  explicit Leader(const Graph& topology)
      : dag_(topology, 0), alive_(topology.num_nodes(), true),
        alive_count_(topology.num_nodes()) {
    elect_and_orient();
  }

  std::optional<NodeId> leader() const {
    if (alive_count_ == 0) return std::nullopt;
    return dag_.destination();
  }

  std::uint64_t fail_node(NodeId u) {
    if (!alive_[u]) return 0;
    alive_[u] = false;
    --alive_count_;
    const auto slice = dag_.neighbors(u);
    const std::vector<NodeId> nbrs(slice.begin(), slice.end());
    for (const NodeId v : nbrs) dag_.remove_link(u, v);
    const std::uint64_t before = dag_.total_reversals();
    if (alive_count_ > 0 && dag_.destination() == u) {
      elect_and_orient();
    } else if (alive_count_ > 0) {
      dag_.stabilize();
    }
    return dag_.total_reversals() - before;
  }

  void link_up(NodeId u, NodeId v) {
    if (!alive_[u] || !alive_[v]) return;
    dag_.add_link(u, v);
    dag_.stabilize();
  }

  void link_down(NodeId u, NodeId v) {
    dag_.remove_link(u, v);
    dag_.stabilize();
  }

  bool leader_reachable_from_all() const {
    if (alive_count_ == 0) return true;
    const NodeId leader_id = dag_.destination();
    for (NodeId u = 0; u < alive_.size(); ++u) {
      if (!alive_[u] || u == leader_id) continue;
      if (!dag_.routable(u)) continue;
      if (!dag_.route(u)) return false;
    }
    return true;
  }

  const DynamicHeightsDag& dag() const noexcept { return dag_; }

 private:
  void elect_and_orient() {
    std::optional<NodeId> winner;
    for (NodeId u = 0; u < alive_.size(); ++u) {
      if (alive_[u]) winner = u;
    }
    if (!winner) return;
    dag_.set_destination(*winner);
    dag_.stabilize();
  }

  DynamicHeightsDag dag_;
  std::vector<bool> alive_;
  std::size_t alive_count_;
};

}  // namespace lr::oracle
