#include "graph/sink_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace lr {
namespace {

// ---------------------------------------------------------------------------
// The index against a std::set oracle
// ---------------------------------------------------------------------------

NodeId reference_next(const std::set<NodeId>& set, std::size_t from, NodeId skip) {
  auto it = set.lower_bound(static_cast<NodeId>(from));
  if (it != set.end() && *it == skip) ++it;
  return it == set.end() ? kNoNode : *it;
}

NodeId reference_select(const std::set<NodeId>& set, std::size_t k, NodeId skip) {
  for (const NodeId u : set) {
    if (u == skip) continue;
    if (k-- == 0) return u;
  }
  return kNoNode;
}

/// Cursors worth probing at universe n: the start, mid-word, both sides of
/// every word and summary-word edge below n, the last id and past the end.
std::vector<std::size_t> probe_cursors(std::size_t n) {
  std::vector<std::size_t> cursors{0, 37, 63, 64, 65, 127, 128, 4095, 4096, 4097,
                                    262143, 262144, n / 2, n - 1, n, n + 100};
  std::erase_if(cursors, [n](std::size_t c) { return c > n + 100; });
  return cursors;
}

void expect_matches(const SinkIndex& index, const std::set<NodeId>& set, std::size_t n,
                    std::mt19937_64& rng, const std::string& context) {
  ASSERT_EQ(index.size(), set.size()) << context;
  const NodeId member = set.empty() ? kNoNode : *std::next(set.begin(), rng() % set.size());
  NodeId non_member = static_cast<NodeId>(rng() % n);
  while (set.count(non_member) != 0 && set.size() < n) non_member = (non_member + 1) % n;
  if (set.count(non_member) != 0) non_member = kNoNode;
  for (const NodeId skip : {kNoNode, member, non_member}) {
    const std::string with = context + " skip=" + std::to_string(skip);
    for (const std::size_t from : probe_cursors(n)) {
      // Cursors past the last id stay within NodeId range in every case here.
      EXPECT_EQ(index.next(static_cast<NodeId>(from), skip), reference_next(set, from, skip))
          << with << " from=" << from;
    }
    // A member skip forces the retry path: skip it at its own position.
    if (skip != kNoNode) {
      EXPECT_EQ(index.next(skip, skip), reference_next(set, skip, skip)) << with;
    }
    const std::size_t enabled = set.size() - (skip != kNoNode && set.count(skip) ? 1 : 0);
    if (enabled == 0) continue;
    for (const std::size_t k : {std::size_t{0}, enabled - 1, rng() % enabled}) {
      EXPECT_EQ(index.select(k, skip), reference_select(set, k, skip)) << with << " k=" << k;
    }
  }
  for (const NodeId u : {NodeId{0}, static_cast<NodeId>(n - 1), member, non_member}) {
    if (u < n) {
      EXPECT_EQ(index.contains(u), set.count(u) != 0) << context << " u=" << u;
    }
  }
}

TEST(SinkIndexTest, MatchesStdSetUnderRandomInsertsAndErases) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{4095}, std::size_t{4096}, std::size_t{4097},
                              (std::size_t{1} << 18) + 1}) {
    std::mt19937_64 rng(n);
    SinkIndex index(n);
    std::set<NodeId> set;
    // Half the toggles hit ids next to word and summary-word edges, where
    // an off-by-one in a level's masking would show.
    std::vector<NodeId> edges;
    for (const std::size_t c : probe_cursors(n)) {
      if (c < n) edges.push_back(static_cast<NodeId>(c));
    }
    const std::size_t ops = std::min<std::size_t>(4 * n, 3000);
    for (std::size_t op = 0; op < ops; ++op) {
      const NodeId u = rng() % 2 == 0 ? edges[rng() % edges.size()]
                                      : static_cast<NodeId>(rng() % n);
      if (set.erase(u) != 0) {
        index.erase(u);
      } else {
        set.insert(u);
        index.insert(u);
      }
      if (op % 7 != 0 && op + 1 != ops) continue;
      const std::string context = "n=" + std::to_string(n) + " op=" + std::to_string(op);
      expect_matches(index, set, n, rng, context);
      if (op % 49 == 0 || op + 1 == ops) {
        std::vector<NodeId> walked;
        index.for_each([&walked](NodeId v) { walked.push_back(v); });
        EXPECT_EQ(walked, std::vector<NodeId>(set.begin(), set.end())) << context;
      }
    }
    // Drain to empty: every query reports an empty set again.
    for (const NodeId u : set) index.erase(u);
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.next(0), kNoNode);
  }
}

TEST(SinkIndexTest, ResetEmptiesAndResizes) {
  SinkIndex index(5000);
  index.insert(4999);
  index.insert(7);
  index.reset(100);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.next(0), kNoNode);
  index.insert(99);
  EXPECT_EQ(index.select(0), 99u);
  EXPECT_EQ(index.next(64), 99u);
  index.reset(64);
  EXPECT_EQ(index.next(0), kNoNode);
  index.insert(63);
  EXPECT_EQ(index.next(0, 63), kNoNode);
  EXPECT_EQ(index.select(0), 63u);
}

// ---------------------------------------------------------------------------
// The per-choice cost gate: a choice reads O(log n) words
// ---------------------------------------------------------------------------

TEST(SinkIndexTest, QueriesReadAFewWordsPerLevel) {
  for (const std::size_t n : {std::size_t{1000}, std::size_t{1000000}}) {
    SinkIndex index(n);
    const std::vector<NodeId> members{3, static_cast<NodeId>(n / 3), static_cast<NodeId>(n / 2),
                                      static_cast<NodeId>(n - 1)};
    for (const NodeId u : members) index.insert(u);
    // 64 ids per leaf word, 64 words per summary word: 16 leaf words and
    // one top word at 10^3; 15,625, 245 and 4 words under the top at 10^6.
    const std::uint64_t levels = n == 1000 ? 2 : 4;
    const std::string context = "n=" + std::to_string(n);

    const NodeId non_member = 5;
    for (const std::size_t from : probe_cursors(n)) {
      if (from >= n) continue;
      for (const NodeId skip : {kNoNode, non_member}) {
        std::uint64_t words = 0;
        index.next(static_cast<NodeId>(from), skip, &words);
        EXPECT_GE(words, 1u) << context;
        EXPECT_LE(words, 2 * levels) << context << " from=" << from;
      }
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      std::uint64_t words = 0;
      EXPECT_EQ(index.select(k, non_member, &words), members[k]) << context;
      EXPECT_LE(words, 64 * levels) << context << " k=" << k;
    }
    // Skipping a member costs at most one more climb (the retry after it);
    // the engine's index never holds the destination, so it never pays it.
    for (const NodeId skip : members) {
      std::uint64_t words = 0;
      index.next(0, skip, &words);
      EXPECT_LE(words, 4 * levels) << context << " skip=" << skip;
      words = 0;
      index.select(0, skip, &words);
      EXPECT_LE(words, 64 * levels + 1 + 2 * levels) << context << " skip=" << skip;
    }
    // The counter is the caller's: queries only ever add to it.
    std::uint64_t total = 1000;
    index.next(0, kNoNode, &total);
    index.select(1, kNoNode, &total);
    EXPECT_GT(total, 1000u);
    EXPECT_LE(total, 1000u + 2 * levels + 64 * levels);
  }
}

}  // namespace
}  // namespace lr
