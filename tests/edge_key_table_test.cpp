#include "graph/edge_key_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_set>

namespace lr {
namespace {

/// The canonical pairs of `keys`, ascending: what sorted_edges must return.
std::vector<std::pair<NodeId, NodeId>> sorted_pairs(const std::unordered_set<std::uint64_t>& keys) {
  std::vector<std::uint64_t> flat(keys.begin(), keys.end());
  std::sort(flat.begin(), flat.end());
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const std::uint64_t k : flat) {
    pairs.emplace_back(static_cast<NodeId>(k >> 32), static_cast<NodeId>(k));
  }
  return pairs;
}

TEST(EdgeKeyTableTest, EdgeKeyIsCanonicalAndNonZero) {
  EXPECT_EQ(edge_key(3, 7), edge_key(7, 3));
  EXPECT_EQ(edge_key(3, 7), (std::uint64_t{3} << 32) | 7);
  EXPECT_NE(edge_key(0, 1), 0u);
}

// A duplicate-heavy random stream from a small id range, starting from the
// minimum capacity, so the table grows many times (the 400-node stream ends
// near 31k distinct keys: 16 -> 65536 slots, twelve growths); every answer
// must match std::unordered_set at every step.
TEST(EdgeKeyTableTest, AgreesWithUnorderedSetThroughGrowth) {
  for (const std::size_t n : {2u, 7u, 120u, 400u}) {
    std::mt19937_64 rng(n);
    std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(n - 1));
    EdgeKeyTable table;
    std::unordered_set<std::uint64_t> oracle;
    for (int step = 0; step < 40000; ++step) {
      const NodeId a = pick(rng);
      const NodeId b = pick(rng);
      if (a == b) continue;
      const std::uint64_t key = edge_key(a, b);
      ASSERT_EQ(table.insert(key), oracle.insert(key).second) << "n " << n << " step " << step;
      ASSERT_EQ(table.size(), oracle.size());
      ASSERT_TRUE(table.contains(key));
      const NodeId c = pick(rng);
      const NodeId d = pick(rng);
      if (c != d) {
        ASSERT_EQ(table.contains(edge_key(c, d)), oracle.contains(edge_key(c, d)));
      }
    }
    EXPECT_EQ(table.sorted_edges(n), sorted_pairs(oracle)) << "n " << n;
  }
}

TEST(EdgeKeyTableTest, PresizedTableHoldsItsExpectedCount) {
  EdgeKeyTable table(1000);
  for (NodeId v = 1; v <= 1000; ++v) EXPECT_TRUE(table.insert(edge_key(0, v)));
  for (NodeId v = 1; v <= 1000; ++v) EXPECT_FALSE(table.insert(edge_key(v, 0)));
  EXPECT_EQ(table.size(), 1000u);
}

TEST(EdgeKeyTableTest, SortedEdgesOfEmptyAndTinyTables) {
  EXPECT_TRUE(EdgeKeyTable().sorted_edges(0).empty());
  EXPECT_TRUE(EdgeKeyTable().sorted_edges(1).empty());
  EXPECT_TRUE(EdgeKeyTable(50).sorted_edges(9).empty());
  EdgeKeyTable pair;
  EXPECT_TRUE(pair.insert(edge_key(1, 0)));
  EXPECT_EQ(pair.sorted_edges(2), (std::vector<std::pair<NodeId, NodeId>>{{0, 1}}));
}

// The last buckets of the counting sort: edges on the top ids, including
// the largest lower endpoint any edge below n can have (n - 2), and a
// lower endpoint that holds every other node.
TEST(EdgeKeyTableTest, SortedEdgesAtTheTopOfTheIdRange) {
  const NodeId n = 9;
  EdgeKeyTable table;
  std::unordered_set<std::uint64_t> oracle;
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {8, 7}, {0, 8}, {8, 3}, {0, 1}, {5, 8}, {6, 7}, {7, 0}, {8, 1}, {2, 8}}) {
    table.insert(edge_key(a, b));
    oracle.insert(edge_key(a, b));
  }
  EXPECT_EQ(table.sorted_edges(n), sorted_pairs(oracle));
}

TEST(EdgeKeyTableTest, ContainsExtremeIds) {
  const NodeId top = kNoNode - 1;
  EdgeKeyTable table;
  EXPECT_TRUE(table.insert(edge_key(top, kNoNode)));
  EXPECT_TRUE(table.insert(edge_key(0, kNoNode)));
  EXPECT_TRUE(table.contains(edge_key(kNoNode, top)));
  EXPECT_TRUE(table.contains(edge_key(kNoNode, 0)));
  EXPECT_FALSE(table.contains(edge_key(0, top)));
  EXPECT_FALSE(table.insert(edge_key(kNoNode, 0)));
}

}  // namespace
}  // namespace lr
