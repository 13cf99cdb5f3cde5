#include "graph/digraph_algos.hpp"

#include <algorithm>
#include <queue>

namespace lr {

std::optional<std::vector<NodeId>> topological_order(const Orientation& o) {
  const Graph& g = o.graph();
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> remaining_in(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    remaining_in[u] = static_cast<std::uint32_t>(o.in_degree(u));
  }
  std::queue<NodeId> ready;
  for (NodeId u = 0; u < n; ++u) {
    if (remaining_in[u] == 0) ready.push(u);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop();
    order.push_back(u);
    const auto nbrs = g.neighbors(u);
    const auto edges = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (o.dir_from(u, edges[i]) == Dir::kOut && --remaining_in[nbrs[i]] == 0) {
        ready.push(nbrs[i]);
      }
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool is_acyclic(const Orientation& o) { return topological_order(o).has_value(); }

std::vector<bool> reaches_destination(const Orientation& o, NodeId destination) {
  const Graph& g = o.graph();
  std::vector<bool> reaches(g.num_nodes(), false);
  std::queue<NodeId> frontier;
  reaches[destination] = true;
  frontier.push(destination);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    // Traverse edges *into* u: their tails can reach the destination via u.
    const auto nbrs = g.neighbors(u);
    const auto edges = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (o.dir_from(u, edges[i]) == Dir::kIn && !reaches[nbrs[i]]) {
        reaches[nbrs[i]] = true;
        frontier.push(nbrs[i]);
      }
    }
  }
  return reaches;
}

bool is_destination_oriented(const Orientation& o, NodeId destination) {
  const auto reaches = reaches_destination(o, destination);
  return std::all_of(reaches.begin(), reaches.end(), [](bool b) { return b; });
}

std::vector<NodeId> bad_nodes(const Orientation& o, NodeId destination) {
  const auto reaches = reaches_destination(o, destination);
  std::vector<NodeId> bad;
  for (NodeId u = 0; u < reaches.size(); ++u) {
    if (!reaches[u]) bad.push_back(u);
  }
  return bad;
}

std::vector<NodeId> sinks_excluding(const Orientation& o, NodeId destination) {
  std::vector<NodeId> result;
  o.sinks().for_each([&](NodeId u) {
    if (u != destination) result.push_back(u);
  });
  return result;
}

std::optional<std::vector<NodeId>> find_cycle(const Orientation& o) {
  const Graph& g = o.graph();
  const std::size_t n = g.num_nodes();
  enum class Mark : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Mark> mark(n, Mark::kWhite);
  std::vector<NodeId> parent(n, kNoNode);

  // Iterative DFS over out-edges, tracking the gray path to reconstruct a
  // cycle when a back edge is found.
  for (NodeId root = 0; root < n; ++root) {
    if (mark[root] != Mark::kWhite) continue;
    std::vector<std::pair<NodeId, std::size_t>> stack;  // node, next-incidence index
    stack.emplace_back(root, 0);
    mark[root] = Mark::kGray;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      const auto nbrs = g.neighbors(u);
      const auto edges = g.incident_edges(u);
      bool descended = false;
      while (idx < nbrs.size()) {
        const NodeId v = nbrs[idx];
        if (o.dir_from(u, edges[idx++]) != Dir::kOut) continue;
        if (mark[v] == Mark::kGray) {
          // Found a cycle: walk parents from u back to v.
          std::vector<NodeId> cycle{v};
          for (NodeId w = u; w != v; w = parent[w]) cycle.push_back(w);
          std::reverse(cycle.begin() + 1, cycle.end());
          return cycle;
        }
        if (mark[v] == Mark::kWhite) {
          mark[v] = Mark::kGray;
          parent[v] = u;
          stack.emplace_back(v, 0);
          descended = true;
          break;
        }
      }
      if (!descended && (stack.empty() || stack.back().first == u)) {
        if (idx >= nbrs.size()) {
          mark[u] = Mark::kBlack;
          stack.pop_back();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> directed_distance(const Orientation& o, NodeId from, NodeId to) {
  const Graph& g = o.graph();
  std::vector<std::size_t> dist(g.num_nodes(), std::numeric_limits<std::size_t>::max());
  std::queue<NodeId> frontier;
  dist[from] = 0;
  frontier.push(from);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (u == to) return dist[u];
    const auto nbrs = g.neighbors(u);
    const auto edges = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (o.dir_from(u, edges[i]) == Dir::kOut &&
          dist[nbrs[i]] == std::numeric_limits<std::size_t>::max()) {
        dist[nbrs[i]] = dist[u] + 1;
        frontier.push(nbrs[i]);
      }
    }
  }
  return std::nullopt;
}

}  // namespace lr
