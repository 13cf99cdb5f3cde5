#include "routing/tora.hpp"

#include <algorithm>
#include <utility>

namespace lr {

ToraRouter::ToraRouter(const Graph& initial_topology, NodeId destination)
    : dag_(initial_topology, destination), buffer_(initial_topology.num_nodes(), 0) {
  stats_.reversals += dag_.stabilize();
}

void ToraRouter::link_up(NodeId u, NodeId v) {
  dag_.add_link(u, v);
  ++stats_.link_events;
  stats_.reversals += dag_.stabilize();
  flush_buffers();
}

void ToraRouter::link_down(NodeId u, NodeId v) {
  dag_.remove_link(u, v);
  ++stats_.link_events;
  stats_.reversals += dag_.stabilize();
  flush_buffers();
}

DeliveryResult ToraRouter::send_packet(NodeId source) {
  ++stats_.packets_sent;
  DeliveryResult result;
  const auto path = dag_.route(source);
  if (path) {
    result.delivered = true;
    result.path = *path;
    ++stats_.packets_delivered;
    stats_.total_hops += path->size() - 1;
  } else {
    // Partitioned: park the packet at its source, TORA style; it is
    // re-tried after every topology event.
    if (buffer_[source]++ == 0) {
      parked_.insert(std::lower_bound(parked_.begin(), parked_.end(), source), source);
    }
    ++stats_.packets_buffered;
  }
  return result;
}

std::size_t ToraRouter::buffered_packets() const {
  std::size_t total = 0;
  for (const NodeId source : parked_) total += buffer_[source];
  return total;
}

void ToraRouter::flush_buffers() {
  // Ascending over the parked sources only.  The DAG does not change while
  // flushing, so a source that has a route delivers all its packets along
  // it; one outside the destination's component keeps them parked.
  std::size_t kept = 0;
  for (const NodeId source : parked_) {
    const auto path = dag_.routable(source) ? dag_.route(source) : std::nullopt;
    if (!path) {
      parked_[kept++] = source;
      continue;
    }
    const std::uint32_t count = std::exchange(buffer_[source], 0);
    stats_.packets_flushed += count;
    stats_.packets_delivered += count;
    stats_.total_hops += std::uint64_t{count} * (path->size() - 1);
  }
  parked_.resize(kept);
}

ToraStats run_churn_scenario(const Graph& topology, NodeId destination, std::size_t events,
                             std::size_t packets_per_event, std::uint64_t seed) {
  ToraRouter router(topology, destination);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<EdgeId> pick_edge(0, static_cast<EdgeId>(topology.num_edges() - 1));
  std::uniform_int_distribution<NodeId> pick_node(0,
                                                  static_cast<NodeId>(topology.num_nodes() - 1));
  for (std::size_t i = 0; i < events; ++i) {
    const EdgeId e = pick_edge(rng);
    const NodeId u = topology.edge_u(e);
    const NodeId v = topology.edge_v(e);
    if (router.dag().has_link(u, v)) {
      router.link_down(u, v);
    } else {
      router.link_up(u, v);
    }
    for (std::size_t p = 0; p < packets_per_event; ++p) {
      router.send_packet(pick_node(rng));
    }
  }
  return router.stats();
}

}  // namespace lr
