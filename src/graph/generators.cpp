#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "graph/edge_key_table.hpp"

namespace lr {

namespace {

std::vector<EdgeSense> senses_from_ranking(const Graph& g, const std::vector<std::uint32_t>& rank) {
  std::vector<EdgeSense> senses(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    senses[e] = rank[g.edge_u(e)] < rank[g.edge_v(e)] ? EdgeSense::kForward : EdgeSense::kBackward;
  }
  return senses;
}

// ---------------------------------------------------------------------------
// Random edge sets.  The randomized generators draw until they hold enough
// distinct edges, so whether each draw was new decides how many draws
// follow.  They deduplicate through an EdgeKeyTable (one flat array of
// packed (min << 32 | max) keys, graph/edge_key_table.hpp) whose insert
// answers "new?" exactly as the std::set, and later std::unordered_set, it
// replaced did: every seeded instance keeps its draws and its bytes.  The
// table returns the edges in canonical ascending order, which Graph adopts
// without sorting again, and is freed before the Graph is built.
// ---------------------------------------------------------------------------

/// Canonical edge list of a random connected graph on `n` >= 1 nodes: a
/// random-attachment spanning tree (node i >= 1 joins a uniform node below
/// it, the draws of make_random_tree_graph; low diameter, O(n)), then
/// uniform node pairs until `target` distinct edges exist.
std::vector<std::pair<NodeId, NodeId>> random_connected_edges(std::size_t n, std::size_t target,
                                                              std::mt19937_64& rng) {
  EdgeKeyTable edges(target);
  for (NodeId i = 1; i < n; ++i) {
    std::uniform_int_distribution<NodeId> parent(0, i - 1);
    edges.insert(edge_key(parent(rng), i));
  }
  std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(n - 1));
  while (edges.size() < target) {
    const NodeId a = pick(rng);
    const NodeId b = pick(rng);
    if (a != b) edges.insert(edge_key(a, b));
  }
  return edges.sorted_edges(n);
}

// ---------------------------------------------------------------------------
// Spatial grid over the unit square: cell width >= radius, so any pair
// within `radius` shares a cell or touches an adjacent one.  Turns the
// unit-disk generators' all-pairs O(n^2) scan into O(n * local density)
// and gives the waypoint churn generator O(local density) link diffs per
// mobility step.
// ---------------------------------------------------------------------------

class UnitSquareGrid {
 public:
  /// A grid for ~`n` points and proximity radius `radius`.  The side is
  /// capped near sqrt(n) so cell bookkeeping stays O(n) even for tiny
  /// radii (cells may then cover several radii, which only costs scan
  /// time, never correctness).
  UnitSquareGrid(std::size_t n, double radius) {
    const auto by_radius = radius >= 1.0 ? std::size_t{1}
                                         : static_cast<std::size_t>(1.0 / radius);
    const auto by_count = static_cast<std::size_t>(std::sqrt(static_cast<double>(n))) + 1;
    side_ = std::max<std::size_t>(1, std::min(by_radius, by_count));
    cells_.resize(side_ * side_);
  }

  void insert(NodeId i, double x, double y) { cells_[cell_of(x, y)].push_back(i); }

  void remove(NodeId i, double x, double y) {
    auto& cell = cells_[cell_of(x, y)];
    const auto it = std::find(cell.begin(), cell.end(), i);
    *it = cell.back();  // order within a cell never matters: callers sort
    cell.pop_back();
  }

  /// Calls `f(j)` for every point in the 3x3 cell block around (x, y) —
  /// a superset of everything within one radius.
  template <typename F>
  void for_each_near(double x, double y, F&& f) const {
    const std::size_t cx = clamp_coord(x);
    const std::size_t cy = clamp_coord(y);
    const std::size_t x0 = cx == 0 ? 0 : cx - 1;
    const std::size_t y0 = cy == 0 ? 0 : cy - 1;
    const std::size_t x1 = std::min(cx + 1, side_ - 1);
    const std::size_t y1 = std::min(cy + 1, side_ - 1);
    for (std::size_t gy = y0; gy <= y1; ++gy) {
      for (std::size_t gx = x0; gx <= x1; ++gx) {
        for (const NodeId j : cells_[gy * side_ + gx]) f(j);
      }
    }
  }

 private:
  std::size_t clamp_coord(double t) const {
    const auto c = static_cast<std::size_t>(t * static_cast<double>(side_));
    return std::min(c, side_ - 1);
  }
  std::size_t cell_of(double x, double y) const { return clamp_coord(y) * side_ + clamp_coord(x); }

  std::size_t side_;
  std::vector<std::vector<NodeId>> cells_;
};

/// One connected unit-disk draw: the graph, the node positions it came
/// from, and the (possibly grown) radius that finally connected.
struct UnitDiskDraw {
  Graph graph;
  std::vector<std::pair<double, double>> positions;
  double radius = 0.0;
};

/// The shared placement loop of make_unit_disk_graph and the waypoint
/// churn generator; see make_unit_disk_graph's contract.
UnitDiskDraw draw_connected_unit_disk(std::size_t n, double radius, std::mt19937_64& rng) {
  if (n == 0) throw std::invalid_argument("make_unit_disk_graph: n must be positive");
  if (radius <= 0.0) throw std::invalid_argument("make_unit_disk_graph: radius must be positive");
  std::uniform_real_distribution<double> coordinate(0.0, 1.0);
  double r = radius;
  while (true) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<std::pair<double, double>> position(n);
      for (auto& [x, y] : position) {
        x = coordinate(rng);
        y = coordinate(rng);
      }
      // Bucket the points, then emit each node's in-radius partners with
      // a larger id in ascending order: the exact (i, j) lexicographic
      // emission order of the historical all-pairs scan, at
      // O(n * local density) instead of O(n^2).
      UnitSquareGrid grid(n, r);
      for (NodeId i = 0; i < n; ++i) grid.insert(i, position[i].first, position[i].second);
      std::vector<std::pair<NodeId, NodeId>> edges;
      std::vector<NodeId> partners;
      for (NodeId i = 0; i < n; ++i) {
        partners.clear();
        grid.for_each_near(position[i].first, position[i].second, [&](NodeId j) {
          if (j <= i) return;
          const double dx = position[i].first - position[j].first;
          const double dy = position[i].second - position[j].second;
          if (dx * dx + dy * dy <= r * r) partners.push_back(j);
        });
        std::sort(partners.begin(), partners.end());
        for (const NodeId j : partners) edges.emplace_back(i, j);
      }
      Graph g(n, std::move(edges));
      if (g.is_connected()) {
        return UnitDiskDraw{std::move(g), std::move(position), r};
      }
    }
    r *= 1.25;  // too sparse to connect at this radius: grow and retry
  }
}

}  // namespace

Graph make_chain_graph(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_chain_graph: n must be positive");
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n - 1);
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, std::move(edges));
}

Graph make_ring_graph(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_ring_graph: n must be >= 3");
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n);
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(0, static_cast<NodeId>(n - 1));
  return Graph(n, std::move(edges));
}

Graph make_grid_graph(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("make_grid_graph: empty grid");
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(2 * rows * cols);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, std::move(edges));
}

Graph make_complete_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (n >= 2) edges.reserve(n * (n - 1) / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return Graph(n, std::move(edges));
}

Graph make_star_graph(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_star_graph: n must be >= 2");
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n - 1);
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph(n, std::move(edges));
}

Graph make_binary_tree_graph(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_binary_tree_graph: n must be positive");
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (n >= 1) edges.reserve(n - 1);
  for (NodeId i = 1; i < n; ++i) edges.emplace_back((i - 1) / 2, i);
  return Graph(n, std::move(edges));
}

Graph make_random_tree_graph(std::size_t n, std::mt19937_64& rng) {
  if (n == 0) throw std::invalid_argument("make_random_tree_graph: n must be positive");
  std::vector<std::pair<NodeId, NodeId>> edges;
  if (n >= 1) edges.reserve(n - 1);
  for (NodeId i = 1; i < n; ++i) {
    std::uniform_int_distribution<NodeId> parent(0, i - 1);
    edges.emplace_back(parent(rng), i);
  }
  return Graph(n, std::move(edges));
}

Graph make_random_connected_graph(std::size_t n, std::size_t extra_edges, std::mt19937_64& rng) {
  if (n == 0) throw std::invalid_argument("make_random_connected_graph: n must be positive");
  const std::size_t max_edges = n * (n - 1) / 2;
  const std::size_t target = std::min(max_edges, (n - 1) + extra_edges);
  return Graph(n, random_connected_edges(n, target, rng));
}

Graph make_layered_graph(std::size_t layers, std::size_t width, double p, std::mt19937_64& rng) {
  if (layers < 2 || width == 0) {
    throw std::invalid_argument("make_layered_graph: need >= 2 layers and positive width");
  }
  // Layer 0 is the single node 0; layer L >= 1 occupies
  // [1 + (L-1)*width, 1 + L*width).
  const auto layer_begin = [width](std::size_t layer) {
    return layer == 0 ? NodeId{0} : static_cast<NodeId>(1 + (layer - 1) * width);
  };
  const auto layer_size = [width](std::size_t layer) { return layer == 0 ? std::size_t{1} : width; };
  const std::size_t n = 1 + (layers - 1) * width;

  const auto draw_edges = [&] {
    EdgeKeyTable edges(n + static_cast<std::size_t>(p * static_cast<double>(n * width)));
    std::bernoulli_distribution flip(p);
    for (std::size_t layer = 1; layer < layers; ++layer) {
      const NodeId prev_begin = layer_begin(layer - 1);
      const std::size_t prev_size = layer_size(layer - 1);
      std::uniform_int_distribution<NodeId> pick_prev(
          prev_begin, static_cast<NodeId>(prev_begin + prev_size - 1));
      for (std::size_t i = 0; i < layer_size(layer); ++i) {
        const NodeId u = static_cast<NodeId>(layer_begin(layer) + i);
        // Guarantee connectivity: one mandatory edge to the previous layer.
        NodeId anchor = pick_prev(rng);
        edges.insert(edge_key(anchor, u));
        // Optional extra edges.
        for (std::size_t j = 0; j < prev_size; ++j) {
          const NodeId v = static_cast<NodeId>(prev_begin + j);
          if (v != anchor && flip(rng)) edges.insert(edge_key(u, v));
        }
      }
    }
    return edges.sorted_edges(n);
  };
  return Graph(n, draw_edges());
}

Graph make_unit_disk_graph(std::size_t n, double radius, std::mt19937_64& rng) {
  return draw_connected_unit_disk(n, radius, rng).graph;
}

Graph make_barbell_graph(std::size_t clique_size, std::size_t bridge_length) {
  if (clique_size < 2) throw std::invalid_argument("make_barbell_graph: cliques need >= 2 nodes");
  const std::size_t n = 2 * clique_size + bridge_length;
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Left clique: nodes [0, clique_size).
  for (NodeId i = 0; i < clique_size; ++i) {
    for (NodeId j = i + 1; j < clique_size; ++j) edges.emplace_back(i, j);
  }
  // Right clique: nodes [clique_size + bridge_length, n).
  const NodeId right_begin = static_cast<NodeId>(clique_size + bridge_length);
  for (NodeId i = right_begin; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  // Bridge path: last left-clique node, bridge nodes, first right-clique node.
  NodeId previous = static_cast<NodeId>(clique_size - 1);
  for (std::size_t k = 0; k < bridge_length; ++k) {
    const NodeId bridge_node = static_cast<NodeId>(clique_size + k);
    edges.emplace_back(previous, bridge_node);
    previous = bridge_node;
  }
  edges.emplace_back(previous, right_begin);
  return Graph(n, std::move(edges));
}

std::vector<std::uint32_t> identity_ranking(std::size_t n) {
  std::vector<std::uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  return rank;
}

std::vector<std::uint32_t> random_ranking(std::size_t n, std::mt19937_64& rng) {
  auto rank = identity_ranking(n);
  std::shuffle(rank.begin(), rank.end(), rng);
  return rank;
}

std::vector<std::uint32_t> destination_oriented_ranking(const Graph& g, NodeId destination,
                                                        std::mt19937_64& rng) {
  const std::size_t n = g.num_nodes();
  // BFS distances from the destination.
  std::vector<std::uint32_t> dist(n, std::numeric_limits<std::uint32_t>::max());
  std::queue<NodeId> frontier;
  dist[destination] = 0;
  frontier.push(destination);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == std::numeric_limits<std::uint32_t>::max()) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  for (const std::uint32_t d : dist) {
    if (d == std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("destination_oriented_ranking: graph must be connected");
    }
  }
  // Distinct ranks ordered primarily by distance, with random tie-breaking.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::shuffle(order.begin(), order.end(), rng);
  std::stable_sort(order.begin(), order.end(),
                   [&dist](NodeId a, NodeId b) { return dist[a] < dist[b]; });
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t pos = 0; pos < n; ++pos) rank[order[pos]] = pos;
  return rank;
}

Instance make_worst_case_chain(std::size_t n) {
  Instance inst;
  inst.graph = make_chain_graph(n);
  inst.senses = senses_from_ranking(inst.graph, identity_ranking(n));
  inst.destination = 0;
  inst.name = "worst_case_chain(n=" + std::to_string(n) + ")";
  return inst;
}

Instance make_random_instance(std::size_t n, std::size_t extra_edges, std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_random_connected_graph(n, extra_edges, rng);
  inst.senses = senses_from_ranking(inst.graph, random_ranking(n, rng));
  inst.destination = 0;
  inst.name = "random(n=" + std::to_string(n) + ", extra=" + std::to_string(extra_edges) + ")";
  return inst;
}

Instance make_layered_bad_instance(std::size_t layers, std::size_t width, double p,
                                   std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_layered_graph(layers, width, p, rng);
  // Identity ranking points every edge away from node 0 (layer indices grow
  // with node id), so all non-destination nodes start bad.
  inst.senses = senses_from_ranking(inst.graph, identity_ranking(inst.graph.num_nodes()));
  inst.destination = 0;
  inst.name = "layered_bad(L=" + std::to_string(layers) + ", w=" + std::to_string(width) + ")";
  return inst;
}

Instance make_grid_instance(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_grid_graph(rows, cols);
  inst.senses = senses_from_ranking(inst.graph, random_ranking(inst.graph.num_nodes(), rng));
  inst.destination = 0;
  inst.name = "grid(" + std::to_string(rows) + "x" + std::to_string(cols) + ")";
  return inst;
}

Instance make_unit_disk_instance(std::size_t n, double radius, std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_unit_disk_graph(n, radius, rng);
  inst.senses = senses_from_ranking(inst.graph, random_ranking(n, rng));
  inst.destination = 0;
  inst.name = "unit_disk(n=" + std::to_string(n) + ")";
  return inst;
}

Instance make_sink_source_instance(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_sink_source_instance: n must be >= 3");
  Instance inst;
  inst.graph = make_star_graph(n);
  // Alternate leaf-edge directions: odd leaves point at the hub, even
  // leaves receive from the hub.  Odd leaves are initial sources, even
  // leaves initial sinks; the hub is neither.  Acyclic because the star is
  // a tree.  Edge e connects hub 0 (edge_u) to leaf e+1 (edge_v).
  inst.senses.resize(inst.graph.num_edges());
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const NodeId leaf = inst.graph.edge_v(e);
    inst.senses[e] = (leaf % 2 == 0) ? EdgeSense::kForward : EdgeSense::kBackward;
  }
  inst.destination = 1;  // a leaf, so the hub and other leaves must reorganize
  inst.name = "sink_source_star(n=" + std::to_string(n) + ")";
  return inst;
}

Graph make_torus_graph(std::size_t rows, std::size_t cols) {
  if (rows < 3 || cols < 3) {
    throw std::invalid_argument("make_torus_graph: need rows, cols >= 3");
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(2 * rows * cols);
  // Every edge is emitted once, by its smaller endpoint; the <= 4 larger
  // partners of each node are sorted, so the whole list ascends in
  // canonical (min, max) lex order (Graph's O(n + m) input path).
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto u = static_cast<NodeId>(r * cols + c);
      const std::array<NodeId, 4> around = {
          static_cast<NodeId>(r * cols + (c + 1) % cols),           // right
          static_cast<NodeId>(r * cols + (c + cols - 1) % cols),    // left
          static_cast<NodeId>(((r + 1) % rows) * cols + c),         // down
          static_cast<NodeId>(((r + rows - 1) % rows) * cols + c),  // up
      };
      std::array<NodeId, 4> larger;
      std::size_t k = 0;
      for (const NodeId v : around) {
        if (v > u) larger[k++] = v;
      }
      // Insertion sort over <= 4 elements (std::sort here trips GCC 12
      // array-bounds false positives at -O2).
      for (std::size_t i = 1; i < k; ++i) {
        for (std::size_t j = i; j > 0 && larger[j] < larger[j - 1]; --j) {
          std::swap(larger[j], larger[j - 1]);
        }
      }
      for (std::size_t i = 0; i < k; ++i) edges.emplace_back(u, larger[i]);
    }
  }
  return Graph(rows * cols, std::move(edges));
}

Graph make_wide_random_graph(std::size_t n, double avg_degree, std::mt19937_64& rng) {
  if (n == 0) throw std::invalid_argument("make_wide_random_graph: n must be positive");
  if (avg_degree < 0.0) {
    throw std::invalid_argument("make_wide_random_graph: avg_degree must be non-negative");
  }
  const std::size_t max_edges = n * (n - 1) / 2;
  const auto wanted = static_cast<std::size_t>(avg_degree * static_cast<double>(n) / 2.0);
  const std::size_t target = std::min(max_edges, std::max(n >= 1 ? n - 1 : 0, wanted));

  return Graph(n, random_connected_edges(n, target, rng));
}

Instance make_torus_instance(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_torus_graph(rows, cols);
  inst.senses = senses_from_ranking(inst.graph, random_ranking(inst.graph.num_nodes(), rng));
  inst.destination = 0;
  inst.name = "torus(" + std::to_string(rows) + "x" + std::to_string(cols) + ")";
  return inst;
}

Instance make_wide_random_instance(std::size_t n, double avg_degree, std::mt19937_64& rng) {
  Instance inst;
  inst.graph = make_wide_random_graph(n, avg_degree, rng);
  inst.senses = senses_from_ranking(inst.graph, random_ranking(n, rng));
  inst.destination = 0;
  inst.name = "wide_random(n=" + std::to_string(n) + ")";
  return inst;
}

ChurnInstance make_waypoint_churn_instance(std::size_t n, double radius, std::size_t min_events,
                                           std::mt19937_64& rng) {
  if (n < 2) throw std::invalid_argument("make_waypoint_churn_instance: n must be >= 2");
  UnitDiskDraw draw = draw_connected_unit_disk(n, radius, rng);
  const double r = draw.radius;
  auto& pos = draw.positions;

  ChurnInstance out;
  out.instance.graph = std::move(draw.graph);
  // Canonical all-forward orientation (see the header contract).
  out.instance.senses.assign(out.instance.graph.num_edges(), EdgeSense::kForward);
  out.instance.destination = 0;
  out.instance.name = "waypoint(n=" + std::to_string(n) + ")";

  UnitSquareGrid grid(n, r);
  for (NodeId i = 0; i < n; ++i) grid.insert(i, pos[i].first, pos[i].second);

  std::uniform_int_distribution<NodeId> pick_node(0, static_cast<NodeId>(n - 1));
  std::uniform_real_distribution<double> coordinate(0.0, 1.0);
  std::vector<NodeId> before, after, lost, gained;
  const auto in_radius = [&](NodeId w, std::vector<NodeId>& partners) {
    partners.clear();
    grid.for_each_near(pos[w].first, pos[w].second, [&](NodeId j) {
      if (j == w) return;
      const double dx = pos[w].first - pos[j].first;
      const double dy = pos[w].second - pos[j].second;
      if (dx * dx + dy * dy <= r * r) partners.push_back(j);
    });
    std::sort(partners.begin(), partners.end());
  };

  // Mobility steps: teleport one node to a fresh waypoint and emit the
  // proximity-link diff.  The step budget guards against degenerate
  // placements where moves stop producing events (near-impossible on a
  // connected draw, but an infinite loop is worse than a short schedule).
  std::size_t steps_left = 10 * min_events + 1000;
  while (out.churn.size() < min_events && steps_left-- > 0) {
    const NodeId w = pick_node(rng);
    in_radius(w, before);
    grid.remove(w, pos[w].first, pos[w].second);
    pos[w] = {coordinate(rng), coordinate(rng)};
    grid.insert(w, pos[w].first, pos[w].second);
    in_radius(w, after);
    lost.clear();
    gained.clear();
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(lost));
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(gained));
    for (const NodeId v : lost) {
      out.churn.push_back(LinkEvent{std::min(w, v), std::max(w, v), false});
    }
    for (const NodeId v : gained) {
      out.churn.push_back(LinkEvent{std::min(w, v), std::max(w, v), true});
    }
  }

  // Healing suffix: return the link set to the initial topology exactly
  // (downs for links churn created, ups for links it destroyed; each in
  // canonical order for determinism).  Only a link the schedule touched can
  // differ from the initial topology, and it ends as its last event left
  // it, so one backward pass over the events finds every difference.
  std::vector<LinkEvent> extra, missing;
  EdgeKeyTable settled(out.churn.size());
  for (auto ev = out.churn.rbegin(); ev != out.churn.rend(); ++ev) {
    if (!settled.insert(edge_key(ev->u, ev->v))) continue;  // a later event decided it
    const bool initial = out.instance.graph.adjacent(ev->u, ev->v);
    if (ev->up && !initial) extra.push_back(LinkEvent{ev->u, ev->v, false});
    if (!ev->up && initial) missing.push_back(LinkEvent{ev->u, ev->v, true});
  }
  const auto canonical = [](const LinkEvent& x, const LinkEvent& y) {
    return std::pair(x.u, x.v) < std::pair(y.u, y.v);
  };
  std::sort(extra.begin(), extra.end(), canonical);
  std::sort(missing.begin(), missing.end(), canonical);
  out.churn.insert(out.churn.end(), extra.begin(), extra.end());
  out.churn.insert(out.churn.end(), missing.begin(), missing.end());
  return out;
}

}  // namespace lr
