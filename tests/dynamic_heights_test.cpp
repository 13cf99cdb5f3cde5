#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "dynamic_heights_oracle.hpp"
#include "graph/generators.hpp"
#include "routing/dynamic_heights.hpp"
#include "routing/leader_election.hpp"
#include "routing/mutex.hpp"
#include "routing/tora.hpp"

/// The event-proportional `DynamicHeightsDag` against the whole-graph
/// oracle (dynamic_heights_oracle.hpp) under random churn, re-targets and
/// service traffic, and its `maintenance_visits()` work counter against
/// the cost bounds the class documents.

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// Differential: every observable agrees with the oracle
// ---------------------------------------------------------------------------

struct Family {
  const char* name;
  std::function<Graph(std::mt19937_64&)> make;
};

std::vector<Family> families() {
  return {
      {"chain", [](std::mt19937_64&) { return make_chain_graph(40); }},
      {"random", [](std::mt19937_64& rng) { return make_random_connected_graph(48, 30, rng); }},
      {"grid", [](std::mt19937_64&) { return make_grid_graph(6, 8); }},
      {"waypoint",
       [](std::mt19937_64& rng) {
         return make_waypoint_churn_instance(48, 0.22, 1, rng).instance.graph;
       }},
      {"edgeless", [](std::mt19937_64&) { return Graph(32, {}); }},
  };
}

/// Asserts every per-node observable of `dag` equals the oracle's.
void expect_same(const DynamicHeightsDag& dag, const oracle::DynamicHeightsDag& ref,
                 const std::string& context) {
  ASSERT_EQ(dag.destination(), ref.destination()) << context;
  ASSERT_EQ(dag.total_reversals(), ref.total_reversals()) << context;
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    ASSERT_EQ(dag.height(u), ref.height(u)) << context << " node " << u;
    ASSERT_EQ(dag.is_sink(u), ref.is_sink(u)) << context << " node " << u;
    ASSERT_EQ(dag.routable(u), ref.routable(u)) << context << " node " << u;
    ASSERT_EQ(dag.next_hop(u), ref.next_hop(u)) << context << " node " << u;
    ASSERT_EQ(dag.route(u), ref.route(u)) << context << " node " << u;
    const auto mine = dag.neighbors(u);
    const auto theirs = ref.neighbors(u);
    ASSERT_TRUE(std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end()))
        << context << " node " << u << ": neighbour lists differ";
  }
}

/// A random node satisfying `pred`, or nullopt when none does.
std::optional<NodeId> pick_node(std::size_t n, std::mt19937_64& rng,
                                const std::function<bool(NodeId)>& pred) {
  std::vector<NodeId> choices;
  for (NodeId u = 0; u < n; ++u) {
    if (pred(u)) choices.push_back(u);
  }
  if (choices.empty()) return std::nullopt;
  return choices[rng() % choices.size()];
}

/// One random mutation applied to both DAGs: an add (sometimes of a present
/// link), a remove (sometimes of an absent one), or a re-target into or out
/// of the destination's component.  Returns true iff it changed the link set.
bool mutate(DynamicHeightsDag& dag, oracle::DynamicHeightsDag& ref, std::mt19937_64& rng) {
  const std::size_t n = dag.num_nodes();
  const std::uint64_t kind = rng() % 10;
  if (kind < 2) {
    const bool inside = rng() % 2 == 0;
    const auto d = pick_node(n, rng, [&](NodeId u) { return dag.routable(u) == inside; });
    if (!d) return false;
    dag.set_destination(*d);
    ref.set_destination(*d);
    return false;
  }
  if (kind < 6) {
    const auto u = pick_node(n, rng, [&](NodeId x) { return !dag.neighbors(x).empty(); });
    if (!u) return false;
    const auto nbrs = dag.neighbors(*u);
    const NodeId v = rng() % 8 == 0 ? static_cast<NodeId>(rng() % n)  // often absent
                                    : nbrs[rng() % nbrs.size()];
    const bool present = dag.has_link(*u, v);
    dag.remove_link(*u, v);
    ref.remove_link(*u, v);
    return present;
  }
  const NodeId u = static_cast<NodeId>(rng() % n);
  NodeId v = static_cast<NodeId>(rng() % n);
  if (u == v) v = static_cast<NodeId>((v + 1) % n);
  const bool absent = !dag.has_link(u, v);
  dag.add_link(u, v);
  ref.add_link(u, v);
  return absent;
}

TEST(DynamicHeightsDifferential, MatchesTheWholeGraphOracleUnderChurnAndRetargets) {
  for (const Family& family : families()) {
    for (const bool batch : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::mt19937_64 rng(seed * 7919 + (batch ? 1 : 0));
        const Graph g = family.make(rng);
        const NodeId d = static_cast<NodeId>(rng() % g.num_nodes());
        std::optional<DynamicHeightsDag> dag;
        std::optional<oracle::DynamicHeightsDag> ref;
        std::uint64_t effective = 0;
        if (batch) {
          dag.emplace(g, d);
          ref.emplace(g, d);
        } else {
          dag.emplace(g.num_nodes(), d);
          ref.emplace(g.num_nodes(), d);
          for (const auto& [u, v] : g.edges()) {
            dag->add_link(u, v);
            ref->add_link(u, v);
            ++effective;
          }
        }
        const std::string where = std::string(family.name) + (batch ? " batch" : " empty") +
                                  " seed " + std::to_string(seed);
        ASSERT_NO_FATAL_FAILURE(expect_same(*dag, *ref, where + " constructed"));
        for (int round = 0; round < 60; ++round) {
          const std::string at = where + " round " + std::to_string(round);
          const int mutations = static_cast<int>(rng() % 4);  // 0-3 between stabilizes
          for (int i = 0; i < mutations; ++i) {
            if (mutate(*dag, *ref, rng)) ++effective;
            for (NodeId u = 0; u < g.num_nodes(); ++u) {
              ASSERT_EQ(dag->routable(u), ref->routable(u)) << at << " mutation " << i;
            }
          }
          ASSERT_EQ(dag->stabilize(), ref->stabilize()) << at;
          ASSERT_NO_FATAL_FAILURE(expect_same(*dag, *ref, at));
        }
        // Both constructors count every effective add/remove as a patch.
        EXPECT_EQ(dag->snapshot_patches(), effective) << where;
        EXPECT_EQ(dag->snapshot_rebuilds(), 1u) << where;
      }
    }
  }
}

TEST(DynamicHeightsDifferential, ToraRouterMatchesTheOracleRouter) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    // Sparse topologies, so link flips partition and heal often.
    const Graph g = seed % 2 == 0 ? make_random_connected_graph(40, 6, rng)
                                  : make_waypoint_churn_instance(40, 0.2, 1, rng).instance.graph;
    ToraRouter router(g, 0);
    oracle::Tora ref(g, 0);
    for (int event = 0; event < 150; ++event) {
      const auto [u, v] = g.edges()[rng() % g.num_edges()];
      if (router.dag().has_link(u, v)) {
        router.link_down(u, v);
        ref.link_down(u, v);
      } else {
        router.link_up(u, v);
        ref.link_up(u, v);
      }
      for (int p = 0; p < 3; ++p) {
        const NodeId source = static_cast<NodeId>(rng() % g.num_nodes());
        ASSERT_EQ(router.send_packet(source).delivered, ref.send_packet(source));
      }
      const ToraStats& s = router.stats();
      const std::string at = "seed " + std::to_string(seed) + " event " + std::to_string(event);
      ASSERT_EQ(s.packets_sent, ref.packets_sent) << at;
      ASSERT_EQ(s.packets_delivered, ref.packets_delivered) << at;
      ASSERT_EQ(s.packets_buffered, ref.packets_buffered) << at;
      ASSERT_EQ(s.packets_flushed, ref.packets_flushed) << at;
      ASSERT_EQ(s.total_hops, ref.total_hops) << at;
      ASSERT_EQ(s.link_events, ref.link_events) << at;
      ASSERT_EQ(s.reversals, ref.reversals) << at;
      ASSERT_EQ(router.buffered_packets(), ref.buffered_packets()) << at;
    }
    EXPECT_GT(router.stats().packets_flushed, 0u) << "seed " << seed << " never flushed";
  }
}

TEST(DynamicHeightsDifferential, MutexMatchesTheOracleMutex) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed + 100);
    const Graph g = make_random_connected_graph(36, 14, rng);
    LinkReversalMutex mutex(g, 0);
    oracle::Mutex ref(g, 0);
    for (int op = 0; op < 200; ++op) {
      const std::string at = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      const std::uint64_t kind = rng() % 4;
      if (kind == 0) {
        const auto [u, v] = g.edges()[rng() % g.num_edges()];
        if (mutex.dag().has_link(u, v)) {
          mutex.link_down(u, v);
          ref.link_down(u, v);
        } else {
          mutex.link_up(u, v);
          ref.link_up(u, v);
        }
      } else if (kind == 1) {
        ASSERT_EQ(mutex.release(), ref.release()) << at;
      } else {
        const NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
        const bool has_route = mutex.dag().route(u).has_value();
        ASSERT_EQ(has_route, ref.dag().route(u).has_value()) << at;
        if (has_route) {
          ASSERT_EQ(mutex.request(u), ref.request(u)) << at;
        }
      }
      ASSERT_EQ(mutex.holder(), ref.holder()) << at;
      ASSERT_EQ(mutex.stats().requests, ref.requests) << at;
      ASSERT_EQ(mutex.stats().grants, ref.grants) << at;
      ASSERT_EQ(mutex.stats().total_request_hops, ref.total_request_hops) << at;
      ASSERT_EQ(mutex.stats().total_reversals, ref.total_reversals) << at;
      ASSERT_EQ(mutex.dag().total_reversals(), ref.dag().total_reversals()) << at;
    }
  }
}

TEST(DynamicHeightsDifferential, LeaderElectionMatchesTheOracleService) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed + 200);
    const Graph g = make_random_connected_graph(40, 24, rng);
    LeaderElectionService service(g);
    oracle::Leader ref(g);
    for (int op = 0; op < 120; ++op) {
      const std::string at = "seed " + std::to_string(seed) + " op " + std::to_string(op);
      if (rng() % 6 == 0) {
        const NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
        ASSERT_EQ(service.fail_node(u), ref.fail_node(u)) << at;
      } else {
        const auto [u, v] = g.edges()[rng() % g.num_edges()];
        if (service.dag().has_link(u, v)) {
          service.link_down(u, v);
          ref.link_down(u, v);
        } else {
          service.link_up(u, v);
          ref.link_up(u, v);
        }
      }
      ASSERT_EQ(service.leader(), ref.leader()) << at;
      ASSERT_EQ(service.total_reversals(), ref.dag().total_reversals()) << at;
      ASSERT_EQ(service.leader_reachable_from_all(), ref.leader_reachable_from_all()) << at;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        ASSERT_EQ(service.dag().routable(u), ref.dag().routable(u)) << at << " node " << u;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Work: maintenance visits follow what an event touches, not n
// ---------------------------------------------------------------------------

/// Visits spent by `event` alone.
std::uint64_t visits_of(DynamicHeightsDag& dag, const std::function<void()>& event) {
  const std::uint64_t before = dag.maintenance_visits();
  event();
  return dag.maintenance_visits() - before;
}

/// Grids with 50 columns at ~10^3 and ~10^5 nodes; destination 0.  The
/// all-(0, id) initial heights already orient a grid towards node 0.
constexpr std::size_t kGridCols = 50;
constexpr std::size_t kGridRows[] = {20, 2'000};
/// Chains at 10^3 and 10^5 nodes; destination 0.
constexpr std::size_t kChainSizes[] = {1'000, 100'000};

TEST(DynamicHeightsWork, RemovalThatLeavesTheHigherEndpointAnOutLinkVisitsNothing) {
  for (const std::size_t rows : kGridRows) {
    DynamicHeightsDag dag(make_grid_graph(rows, kGridCols), 0);
    ASSERT_EQ(dag.stabilize(), 0u);
    // Interior node (r, c) points left and up; dropping either leaves the other.
    for (const NodeId r : {1u, 7u, static_cast<NodeId>(rows / 2)}) {
      const NodeId u = r * kGridCols + 3;
      EXPECT_EQ(visits_of(dag, [&] { dag.remove_link(u, u - 1); }), 0u) << rows << " row " << r;
      EXPECT_EQ(visits_of(dag, [&] { EXPECT_EQ(dag.stabilize(), 0u); }), 0u);
      EXPECT_EQ(visits_of(dag, [&] { dag.add_link(u, u - 1); }), 0u);
    }
  }
  for (const std::size_t n : kChainSizes) {
    DynamicHeightsDag dag(make_chain_graph(n), 0);
    ASSERT_EQ(dag.stabilize(), 0u);
    // A chord gives node k+2 a second out-link.
    for (const NodeId k : {5u, static_cast<NodeId>(n / 2), static_cast<NodeId>(n - 3)}) {
      EXPECT_EQ(visits_of(dag, [&] { dag.add_link(k, k + 2); }), 0u);
      EXPECT_EQ(dag.stabilize(), 0u);
      EXPECT_EQ(visits_of(dag, [&] { dag.remove_link(k + 1, k + 2); }), 0u) << n << " k " << k;
      EXPECT_EQ(visits_of(dag, [&] { EXPECT_EQ(dag.stabilize(), 0u); }), 0u);
      dag.add_link(k + 1, k + 2);
      dag.remove_link(k, k + 2);
      ASSERT_EQ(dag.stabilize(), 0u);
    }
  }
}

/// Per-event visits and reversal steps of one local event script.
struct Cost {
  std::vector<std::uint64_t> visits;
  std::uint64_t reversals = 0;
  friend bool operator==(const Cost&, const Cost&) = default;
};

Cost run_script(DynamicHeightsDag& dag, const std::vector<std::function<void()>>& script) {
  Cost cost;
  for (const auto& event : script) {
    cost.visits.push_back(visits_of(dag, event));
    cost.visits.push_back(visits_of(dag, [&] { cost.reversals += dag.stabilize(); }));
  }
  return cost;
}

TEST(DynamicHeightsWork, TheSameLocalEventsVisitTheSameNodesAtEverySize) {
  std::vector<Cost> grid_costs;
  for (const std::size_t rows : kGridRows) {
    DynamicHeightsDag dag(make_grid_graph(rows, kGridCols), 0);
    dag.stabilize();
    const auto id = [](std::size_t r, std::size_t c) {
      return static_cast<NodeId>(r * kGridCols + c);
    };
    const std::size_t r = rows - 1;
    const std::size_t c = kGridCols - 1;
    // Strip node (1, 1) of both out-links (a split search that meets, then
    // a reversal) and put them back; then cut the far corner off (a split
    // search that closes at once) and re-attach it (a merge of one node).
    grid_costs.push_back(run_script(dag, {[&] { dag.remove_link(id(1, 1), id(0, 1)); },
                                          [&] { dag.remove_link(id(1, 1), id(1, 0)); },
                                          [&] { dag.add_link(id(1, 1), id(1, 0)); },
                                          [&] { dag.add_link(id(1, 1), id(0, 1)); },
                                          [&] { dag.remove_link(id(r, c), id(r - 1, c)); },
                                          [&] { dag.remove_link(id(r, c), id(r, c - 1)); },
                                          [&] { dag.add_link(id(r, c), id(r, c - 1)); }}));
  }
  EXPECT_EQ(grid_costs[0], grid_costs[1]);
  EXPECT_GT(grid_costs[0].reversals, 0u);

  std::vector<Cost> chain_costs;
  for (const std::size_t n : kChainSizes) {
    DynamicHeightsDag dag(make_chain_graph(n), 0);
    dag.stabilize();
    const NodeId last = static_cast<NodeId>(n - 1);
    // Cut the far tail off and re-attach it, then cut the destination off
    // with one neighbour (the small side holds it) and move the
    // destination back and forth along that short chain.
    chain_costs.push_back(run_script(dag, {[&] { dag.remove_link(last - 2, last - 1); },
                                           [&] { dag.add_link(last - 2, last - 1); },
                                           [&] { dag.remove_link(1, 2); },
                                           [&] { dag.set_destination(1); },
                                           [&] { dag.set_destination(0); }}));
    EXPECT_FALSE(dag.routable(2));
    EXPECT_TRUE(dag.routable(1));
  }
  EXPECT_EQ(chain_costs[0], chain_costs[1]);
  EXPECT_GT(chain_costs[0].reversals, 0u);
}

/// Size and degree sum of the component holding `root` in `dag`.
std::pair<std::uint64_t, std::uint64_t> component_extent(const DynamicHeightsDag& dag,
                                                         NodeId root) {
  std::vector<bool> seen(dag.num_nodes(), false);
  std::vector<NodeId> queue{root};
  seen[root] = true;
  std::uint64_t degree_sum = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto nbrs = dag.neighbors(queue[head]);
    degree_sum += nbrs.size();
    for (const NodeId v : nbrs) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return {queue.size(), degree_sum};
}

TEST(DynamicHeightsWork, BridgeRemovalVisitsAtMostTwiceTheSmallerSide) {
  const auto check = [](DynamicHeightsDag& dag, NodeId u, NodeId v, const std::string& where) {
    const std::uint64_t visits = visits_of(dag, [&] { dag.remove_link(u, v); });
    const auto [su, du] = component_extent(dag, u);
    const auto [sv, dv] = component_extent(dag, v);
    ASSERT_EQ(su + sv, dag.num_nodes()) << where << ": not a bridge";
    const auto [s, d] = su < sv ? std::pair{su, du} : std::pair{sv, dv};
    EXPECT_LE(visits, 2 * (s + d)) << where;
    EXPECT_GT(visits, 0u) << where;
    dag.add_link(u, v);
    dag.stabilize();
  };
  for (const std::size_t n : kChainSizes) {
    DynamicHeightsDag dag(make_chain_graph(n), 0);
    dag.stabilize();
    for (const NodeId k : {0u, 1u, 10u, static_cast<NodeId>(n / 2), static_cast<NodeId>(n - 12),
                           static_cast<NodeId>(n - 2)}) {
      check(dag, k, k + 1, "chain " + std::to_string(n) + " link " + std::to_string(k));
    }
  }
  // Every edge of a tree is a bridge; heights drift as the cuts heal.
  std::mt19937_64 rng(17);
  const Graph tree = make_random_tree_graph(3'000, rng);
  DynamicHeightsDag dag(tree, 0);
  dag.stabilize();
  for (int i = 0; i < 200; ++i) {
    const auto [u, v] = tree.edges()[rng() % tree.num_edges()];
    check(dag, u, v, "tree edge " + std::to_string(u) + "-" + std::to_string(v));
  }
}

TEST(DynamicHeightsWork, AMergeVisitsOnlyTheAbsorbedSide) {
  for (const std::size_t n : kChainSizes) {
    DynamicHeightsDag dag(make_chain_graph(n), 0);
    dag.stabilize();
    for (const NodeId k : {static_cast<NodeId>(n - 4), static_cast<NodeId>(n / 2), 1u}) {
      dag.remove_link(k, k + 1);
      dag.stabilize();
      const std::uint64_t absorbed = n - (k + 1);
      EXPECT_EQ(visits_of(dag, [&] { dag.add_link(k, k + 1); }), absorbed)
          << n << " link " << k;
      EXPECT_TRUE(dag.routable(static_cast<NodeId>(n - 1)));
      dag.stabilize();
    }
  }
  // An isolated node joining the component is a side of one.
  DynamicHeightsDag dag(make_grid_graph(10, 10), 0);
  dag.stabilize();
  for (const NodeId v : {1u, 10u}) dag.remove_link(0, v);
  dag.set_destination(55);
  dag.stabilize();
  ASSERT_FALSE(dag.routable(0));
  EXPECT_EQ(visits_of(dag, [&] { dag.add_link(0, 1); }), 1u);
  EXPECT_TRUE(dag.routable(0));
}

}  // namespace
}  // namespace lr
