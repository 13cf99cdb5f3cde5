#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

/// \file sink_index.hpp
/// An ascending set of node ids answering each id-ordered scheduler choice
/// (lowest id, next at or after a round-robin cursor, k-th smallest for a
/// uniform draw) in O(log n) words.  Orientation and ReversalEngine each
/// keep one, so both paths make a choice with the same query.
///
/// One bit per id in 64-bit leaf words; above them summary levels whose bit
/// i marks word i of the level below as non-empty (the occupancy-bitmap
/// idiom of src/sim/time_index.cpp), up to one top word.  Every word also
/// counts the members beneath it, so `select` skips whole subtrees.  A
/// query adds the words it read to the caller's `words_read`, so queries
/// stay const (tests/sink_index_test.cpp gates the per-level cost).

namespace lr {

/// The ascending id set described above, over ids [0, universe).
class SinkIndex {
 public:
  /// An empty set over ids [0, universe).
  explicit SinkIndex(std::size_t universe = 0) { reset(universe); }
  /// Empties the set and sizes it for ids [0, universe), keeping capacity.
  void reset(std::size_t universe);

  /// Number of members.
  std::size_t size() const { return counts_.back(); }
  /// True iff `u` is a member; `u` must be below the universe.
  bool contains(NodeId u) const { return (words_[u >> 6] >> (u & 63)) & 1; }

  /// Adds `u`, which must be in range and not a member.
  void insert(NodeId u) { update(u, 1); }
  /// Removes `u`, which must be a member.
  void erase(NodeId u) { update(u, ~std::uint32_t{0}); }

  /// The smallest member >= `from` other than `skip`, or kNoNode.
  NodeId next(NodeId from, NodeId skip = kNoNode, std::uint64_t* words_read = nullptr) const;

  /// The k-th smallest member (k = 0 is the least) other than `skip`.
  /// Precondition: k < size() - (skip is a member).
  NodeId select(std::size_t k, NodeId skip = kNoNode, std::uint64_t* words_read = nullptr) const;

  /// Calls f(u) for every member in ascending order, walking only the leaf
  /// words the first summary level marks non-empty: a sparse scan skips
  /// the empty words, and no member pays for a `next` climb.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = offset_[1]; s < offset_[2]; ++s) {
      for (std::uint64_t marks = words_[s]; marks != 0; marks &= marks - 1) {
        const std::size_t w =
            (s - offset_[1]) * 64 + static_cast<std::size_t>(std::countr_zero(marks));
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          f(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        }
      }
    }
  }

 private:
  /// Adds `delta` (1 or -1 modulo 2^32) to the counts on u's path.  A bit
  /// flips only where the word below it just became non-empty or empty.
  void update(NodeId u, std::uint32_t delta) {
    bool flip = true;
    for (std::size_t level = 0, index = u; level < levels_; ++level, index >>= 6) {
      const std::size_t w = offset_[level] + (index >> 6);
      counts_[w] += delta;
      if (flip) words_[w] ^= std::uint64_t{1} << (index & 63);
      flip = flip && counts_[w] == (delta == 1 ? 1 : 0);
    }
  }
  NodeId next_member(std::size_t from, std::uint64_t& words_read) const;

  // Every level back to back, leaves first: level l holds the words
  // [offset_[l], offset_[l + 1]).  for_each walks the first summary level,
  // so there are at least two levels; six cover 2^32 ids.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> counts_;  // members beneath each word
  std::array<std::size_t, 8> offset_{};
  std::size_t levels_ = 0;
};

}  // namespace lr
