// Tests for the streaming two-pass CSR construction path
// (graph/csr.hpp, CsrBuilder): byte-identity against the batch converter
// under randomized edge streams, the 32-bit position-space overflow
// guard, and the stream-contract validation (range, self-loops, strict
// canonical ascent, pass-1/pass-2 replay discipline).

#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace lr {
namespace {

/// Streams `edges` (already strictly ascending canonical pairs) through a
/// CsrBuilder with one sense per edge.
CsrGraph build_streamed(std::size_t n, std::span<const std::pair<NodeId, NodeId>> edges,
                        const std::vector<EdgeSense>& senses) {
  CsrBuilder builder(n);
  for (const auto& [u, v] : edges) builder.count_edge(u, v);
  builder.begin_placement();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    builder.place_edge(edges[e].first, edges[e].second, senses[e]);
  }
  return builder.finish();
}

/// A random connected-ish canonical edge list: a deterministic spanning
/// chain (so every node appears) plus random distinct extra pairs, sorted
/// into the builder's stream order.  Edge ids are positions in the sorted
/// list, so batch and streaming construction see identical inputs.
std::vector<std::pair<NodeId, NodeId>> random_canonical_edges(std::size_t n, std::size_t extra,
                                                              std::mt19937_64& rng) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.emplace(u, u + 1);
  std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(n - 1));
  for (std::size_t i = 0; i < extra; ++i) {
    const NodeId a = pick(rng);
    const NodeId b = pick(rng);
    if (a != b) edges.emplace(std::min(a, b), std::max(a, b));
  }
  return {edges.begin(), edges.end()};  // std::set iterates in ascending order
}

TEST(CsrBuilder, StreamedTorusMatchesBatchConversion) {
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{3, 3}, {3, 5}, {8, 13}}) {
    const Graph g = make_torus_graph(rows, cols);
    const CsrGraph batch(g);

    CsrBuilder builder(g.num_nodes());
    stream_torus_edges(rows, cols, [&](NodeId u, NodeId v) { builder.count_edge(u, v); });
    builder.begin_placement();
    stream_torus_edges(rows, cols, [&](NodeId u, NodeId v) { builder.place_edge(u, v); });
    const CsrGraph streamed = builder.finish();

    EXPECT_EQ(streamed.num_nodes(), batch.num_nodes()) << rows << "x" << cols;
    EXPECT_EQ(streamed.num_edges(), batch.num_edges()) << rows << "x" << cols;
    EXPECT_EQ(streamed.fingerprint(), batch.fingerprint()) << rows << "x" << cols;
  }
}

TEST(CsrBuilder, RandomizedStreamsMatchBatchByteForByte) {
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 120);
    const std::size_t extra = static_cast<std::size_t>(rng() % (3 * n));
    const std::vector<std::pair<NodeId, NodeId>> edges = random_canonical_edges(n, extra, rng);
    std::vector<EdgeSense> senses(edges.size());
    for (EdgeSense& s : senses) {
      s = (rng() & 1) != 0 ? EdgeSense::kForward : EdgeSense::kBackward;
    }

    const Graph g(n, edges);  // input order is canonical-sorted, so ids agree
    const CsrGraph batch(g, senses);
    const CsrGraph streamed = build_streamed(n, edges, senses);

    ASSERT_EQ(streamed.fingerprint(), batch.fingerprint())
        << "trial " << trial << ": n=" << n << " m=" << edges.size();
  }
}

TEST(CsrBuilder, WideRandomGeneratorStreamsByteIdentically) {
  // make_wide_random_graph documents a canonically sorted edge list, so
  // its edges() vector is directly streamable.
  std::mt19937_64 rng(99);
  const Graph g = make_wide_random_graph(500, 6.0, rng);
  const std::vector<EdgeSense> senses(g.num_edges(), EdgeSense::kForward);
  const CsrGraph batch(g);
  const CsrGraph streamed = build_streamed(g.num_nodes(), g.edges(), senses);
  EXPECT_EQ(streamed.fingerprint(), batch.fingerprint());
}

TEST(CsrBuilder, OverflowGuardRejectsPositionSpaceExhaustion) {
  // position_limit stands in for 2^32: four edges need eight adjacency
  // positions, which must be rejected at begin_placement (2*E >= limit)
  // before any position array is allocated.
  CsrBuilder rejected(6, /*position_limit=*/8);
  rejected.count_edge(0, 1);
  rejected.count_edge(0, 2);
  rejected.count_edge(0, 3);
  rejected.count_edge(0, 4);
  EXPECT_THROW(rejected.begin_placement(), std::overflow_error);

  // One more unit of headroom and the identical stream builds fine.
  CsrBuilder fits(6, /*position_limit=*/9);
  fits.count_edge(0, 1);
  fits.count_edge(0, 2);
  fits.count_edge(0, 3);
  fits.count_edge(0, 4);
  fits.begin_placement();
  fits.place_edge(0, 1);
  fits.place_edge(0, 2);
  fits.place_edge(0, 3);
  fits.place_edge(0, 4);
  const CsrGraph csr = fits.finish();
  EXPECT_EQ(csr.num_edges(), 4u);
  const Graph star(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(csr.fingerprint(), CsrGraph(star).fingerprint());
}

TEST(CsrBuilder, StreamContractViolationsThrow) {
  {
    CsrBuilder b(3);
    EXPECT_THROW(b.count_edge(0, 3), std::invalid_argument);  // endpoint out of range
  }
  {
    CsrBuilder b(3);
    EXPECT_THROW(b.count_edge(2, 2), std::invalid_argument);  // self loop
  }
  {
    CsrBuilder b(4);
    b.count_edge(0, 1);
    EXPECT_THROW(b.count_edge(0, 1), std::invalid_argument);  // duplicate (not ascending)
  }
  {
    CsrBuilder b(4);
    b.count_edge(0, 2);
    EXPECT_THROW(b.count_edge(0, 1), std::invalid_argument);  // canonical order regression
  }
  {
    // Non-canonical endpoint order is fine — (1, 0) canonicalizes to (0, 1).
    CsrBuilder b(4);
    b.count_edge(1, 0);
    b.count_edge(0, 2);
    b.begin_placement();
    b.place_edge(1, 0);
    b.place_edge(0, 2);
    EXPECT_EQ(b.finish().num_edges(), 2u);
  }
}

TEST(CsrBuilder, PassTwoMustReplayPassOne) {
  {
    // Fewer edges in pass 2: caught at finish().
    CsrBuilder b(4);
    b.count_edge(0, 1);
    b.count_edge(0, 2);
    b.begin_placement();
    b.place_edge(0, 1);
    EXPECT_THROW(b.finish(), std::invalid_argument);
  }
  {
    // More edges in pass 2: caught at place_edge.
    CsrBuilder b(4);
    b.count_edge(0, 1);
    b.begin_placement();
    b.place_edge(0, 1);
    EXPECT_THROW(b.place_edge(0, 2), std::invalid_argument);
  }
  {
    // Pass 2 must also ascend strictly.
    CsrBuilder b(4);
    b.count_edge(0, 1);
    b.count_edge(0, 2);
    b.begin_placement();
    b.place_edge(0, 2);
    EXPECT_THROW(b.place_edge(0, 1), std::invalid_argument);
  }
  {
    // Phase discipline: no counting after placement starts, no placement
    // or finish before it.
    CsrBuilder b(4);
    EXPECT_THROW(b.place_edge(0, 1), std::logic_error);
    EXPECT_THROW(b.finish(), std::logic_error);
    b.count_edge(0, 1);
    b.begin_placement();
    EXPECT_THROW(b.count_edge(0, 2), std::logic_error);
    EXPECT_THROW(b.begin_placement(), std::logic_error);
  }
}

TEST(CsrBuilder, WaypointChurnReplayRestoresInitialFingerprint) {
  // The random-waypoint schedule's healing suffix guarantees full replay
  // returns to the initial link set, so the snapshot frozen from the
  // replayed links is byte-identical to the initial one.
  std::mt19937_64 rng(4242);
  const ChurnInstance churned = make_waypoint_churn_instance(200, 0.18, 400, rng);
  ASSERT_GE(churned.churn.size(), 400u);

  const Graph& initial = churned.instance.graph;
  std::set<std::pair<NodeId, NodeId>> links(initial.edges().begin(), initial.edges().end());
  const auto initial_links = links;
  bool diverged = false;
  for (const LinkEvent& event : churned.churn) {
    const std::pair<NodeId, NodeId> link = std::minmax(event.u, event.v);
    ASSERT_EQ(links.count(link), event.up ? 0u : 1u) << "event must flip the link";
    if (event.up) {
      links.insert(link);
    } else {
      links.erase(link);
    }
    diverged = diverged || links != initial_links;
  }
  EXPECT_TRUE(diverged) << "schedule never changed the topology";
  const Graph replayed(initial.num_nodes(), {links.begin(), links.end()});
  EXPECT_EQ(CsrGraph(replayed, churned.instance.senses).fingerprint(),
            CsrGraph(initial, churned.instance.senses).fingerprint());
}

}  // namespace
}  // namespace lr
