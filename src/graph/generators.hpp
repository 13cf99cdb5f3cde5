#pragma once

#include <random>
#include <string>
#include <vector>

#include "graph/orientation.hpp"

/// \file generators.hpp
/// Workload generators: graph families and initial DAG orientations used by
/// the test suite, the benchmark harnesses (experiments E1–E8,
/// docs/EXPERIMENTS.md), and the scenario runner's topology axis
/// (runner/scenario.hpp).
///
/// Every generator is deterministic given its inputs; randomized ones take
/// a seeded std::mt19937_64 so all experiments are reproducible from a
/// printed seed.

namespace lr {

/// A self-contained workload: an undirected graph, an initial acyclic
/// orientation (as edge senses), and a destination node.
///
/// The Instance owns its Graph; call make_orientation() to obtain a fresh
/// mutable Orientation referencing it.  The Instance must outlive any
/// orientation it hands out.
struct Instance {
  Graph graph;                    ///< the undirected substrate G
  std::vector<EdgeSense> senses;  ///< the initial acyclic orientation G'_init
  NodeId destination = 0;         ///< the destination D
  std::string name;               ///< human-readable workload label

  /// A fresh mutable Orientation referencing this instance's graph.
  Orientation make_orientation() const { return Orientation(graph, senses); }
};

// ---------------------------------------------------------------------------
// Graph families (topology only)
// ---------------------------------------------------------------------------

/// Path with `n` nodes: 0 - 1 - ... - n-1.
Graph make_chain_graph(std::size_t n);

/// Cycle with `n >= 3` nodes.
Graph make_ring_graph(std::size_t n);

/// `rows x cols` grid.  Node (r, c) has id r*cols + c.
Graph make_grid_graph(std::size_t rows, std::size_t cols);

/// Complete graph on `n` nodes.
Graph make_complete_graph(std::size_t n);

/// Star: node 0 is the hub, 1..n-1 are leaves.
Graph make_star_graph(std::size_t n);

/// Complete binary tree with `n` nodes (node i's parent is (i-1)/2).
Graph make_binary_tree_graph(std::size_t n);

/// Uniformly random labeled tree (random attachment).
Graph make_random_tree_graph(std::size_t n, std::mt19937_64& rng);

/// Connected random graph: random spanning tree (the draws of
/// make_random_tree_graph) plus `extra_edges` additional distinct
/// non-tree edges (clamped to the complete graph).  Throws
/// std::invalid_argument when `n` is 0.
Graph make_random_connected_graph(std::size_t n, std::size_t extra_edges, std::mt19937_64& rng);

/// Layered graph: `layers` layers of `width` nodes; every node has >= 1
/// edge into the next layer; extra inter-layer edges appear with
/// probability `p`.  Layer 0 contains only node 0 (the natural
/// destination).
Graph make_layered_graph(std::size_t layers, std::size_t width, double p, std::mt19937_64& rng);

/// Unit-disk graph — the standard model of a mobile ad-hoc network, the
/// deployment link reversal was designed for: `n` nodes placed uniformly
/// in the unit square, edges between pairs within distance `radius`.
/// Non-connected draws are retried (up to 64 times, then the radius is
/// grown by 25% and the process repeats), so the result is always
/// connected.
Graph make_unit_disk_graph(std::size_t n, double radius, std::mt19937_64& rng);

/// Barbell: two complete graphs of `clique_size` nodes joined by a path of
/// `bridge_length` nodes.  Stresses the "work funnels through a narrow
/// bridge" regime.
Graph make_barbell_graph(std::size_t clique_size, std::size_t bridge_length);

// ---------------------------------------------------------------------------
// Million-node families (canonically sorted edge emission — see below)
// ---------------------------------------------------------------------------
//
// The families in this section emit their edges in strictly ascending
// canonical (min, max) lexicographic order, which `Graph` accepts in
// O(n + m) without sorting or a duplicate check (graph/graph.hpp).

/// A `rows x cols` torus (grid with wraparound; node (r, c) has id
/// r*cols + c, every node has degree 4), its edges in strictly ascending
/// canonical order.  Requires rows, cols >= 3 (smaller wraps would create
/// parallel edges).  The constant-degree, huge-diameter regular topology
/// for million-node sweeps: 10^6 nodes cost exactly 2*10^6 edges.
Graph make_torus_graph(std::size_t rows, std::size_t cols);

/// Wide random connected graph: a random-attachment spanning tree (low
/// diameter, hence "wide") plus distinct random extra edges up to
/// `avg_degree * n / 2` total edges (clamped to the complete graph).
/// Deduplicated through a flat EdgeKeyTable (graph/edge_key_table.hpp)
/// and ordered by a counting sort, with no heap node per edge, so a
/// million-node instance takes about a second.  The edge list is
/// canonically sorted (see above).
Graph make_wide_random_graph(std::size_t n, double avg_degree, std::mt19937_64& rng);

// ---------------------------------------------------------------------------
// Rankings (initial acyclic orientations; edges point lower -> higher rank)
// ---------------------------------------------------------------------------

/// Identity ranking: node id is its rank.
std::vector<std::uint32_t> identity_ranking(std::size_t n);

/// Uniformly random permutation ranking.
std::vector<std::uint32_t> random_ranking(std::size_t n, std::mt19937_64& rng);

/// A ranking that makes the orientation destination-oriented: rank grows
/// with (randomly tie-broken) BFS distance from the destination, so every
/// non-destination node has an out-edge towards a strictly lower rank.
/// Precondition: `g` is connected.
std::vector<std::uint32_t> destination_oriented_ranking(const Graph& g, NodeId destination,
                                                        std::mt19937_64& rng);

// ---------------------------------------------------------------------------
// Ready-made instances
// ---------------------------------------------------------------------------

/// The Θ(n_b²) worst-case workload (experiment E2): a chain with the
/// destination at node 0 and every edge directed *away* from it, so all
/// `n - 1` other nodes are bad (n_b = n - 1) and reversal waves must sweep
/// the chain Θ(n_b) times.
Instance make_worst_case_chain(std::size_t n);

/// Random connected instance with a random acyclic initial orientation and
/// destination 0.  The general-purpose fuzz workload for E1/E3/E6.
Instance make_random_instance(std::size_t n, std::size_t extra_edges, std::mt19937_64& rng);

/// Layered instance oriented away from the destination: maximizes initial
/// bad nodes on a non-chain topology (E2's second gadget).
Instance make_layered_bad_instance(std::size_t layers, std::size_t width, double p,
                                   std::mt19937_64& rng);

/// Grid instance with a random acyclic orientation, destination at the
/// top-left corner.  Used by the social-cost experiment E3.
Instance make_grid_instance(std::size_t rows, std::size_t cols, std::mt19937_64& rng);

/// Instance guaranteed to contain initial sinks and sources besides the
/// destination (star with alternating edge directions), exercising NewPR's
/// dummy steps (experiment E4).
Instance make_sink_source_instance(std::size_t n);

/// Unit-disk (MANET) instance with a random acyclic initial orientation;
/// the destination is node 0 (a random position, i.e. a typical gateway).
Instance make_unit_disk_instance(std::size_t n, double radius, std::mt19937_64& rng);

/// Torus instance with a random acyclic orientation, destination 0.
Instance make_torus_instance(std::size_t rows, std::size_t cols, std::mt19937_64& rng);

/// Wide random instance with a random acyclic orientation, destination 0.
Instance make_wide_random_instance(std::size_t n, double avg_degree, std::mt19937_64& rng);

// ---------------------------------------------------------------------------
// Churn schedules (random-waypoint mobility)
// ---------------------------------------------------------------------------

/// A frozen instance plus a precomputed churn schedule for it: the
/// dynamic-topology workload of the E10 scale bench and the
/// `churn_events` sweep axis.
struct ChurnInstance {
  Instance instance;             ///< the initial (pre-churn) workload
  std::vector<LinkEvent> churn;  ///< link events, in application order
};

/// Random-waypoint MANET churn workload: `n` nodes placed as a connected
/// unit-disk graph, then a mobility-driven event schedule of at least
/// `min_events` link events.  Each mobility step teleports one node to a
/// fresh uniform waypoint and emits `down` events for the proximity links
/// it leaves and `up` events for the ones it enters (computed with a
/// spatial grid, O(local density) per step).  The schedule ends with a
/// healing suffix that returns every node's links to the initial
/// topology, so replaying the whole schedule restores the starting link
/// set exactly (tests/generators_test.cpp checks it by CSR fingerprint).
///
/// The instance's initial orientation is the canonical all-forward one
/// (every edge min -> max).  This is a churn/scale workload; use the
/// static families for convergence measurements.
ChurnInstance make_waypoint_churn_instance(std::size_t n, double radius, std::size_t min_events,
                                           std::mt19937_64& rng);

}  // namespace lr
