#include "graph/sink_index.hpp"

namespace lr {

void SinkIndex::reset(std::size_t universe) {
  std::size_t width = universe == 0 ? 1 : (universe + 63) / 64;
  for (levels_ = 1;; ++levels_, width = (width + 63) / 64) {
    offset_.at(levels_) = offset_[levels_ - 1] + width;
    if (width == 1 && levels_ > 1) break;
  }
  words_.assign(offset_[levels_], 0);
  counts_.assign(offset_[levels_], 0);
}

NodeId SinkIndex::next_member(std::size_t from, std::uint64_t& words_read) const {
  // Climb while the rest of the word holding `from`'s ancestor is empty;
  // the first set bit found names the subtree holding the answer, which a
  // descent along first set bits reaches.  One word per level each way.
  for (std::size_t level = 0, index = from; level < levels_; ++level, index = (index >> 6) + 1) {
    const std::size_t w = offset_[level] + (index >> 6);
    if (w >= offset_[level + 1]) return kNoNode;
    ++words_read;
    const std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (index & 63));
    if (bits == 0) continue;
    index = (index >> 6) * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    while (level-- > 0) {
      ++words_read;
      const std::uint64_t below = words_[offset_[level] + index];
      index = index * 64 + static_cast<std::size_t>(std::countr_zero(below));
    }
    return static_cast<NodeId>(index);
  }
  return kNoNode;
}

NodeId SinkIndex::next(NodeId from, NodeId skip, std::uint64_t* words_read) const {
  std::uint64_t words = 0;
  NodeId found = next_member(from, words);
  if (found == skip && found != kNoNode) found = next_member(std::size_t{skip} + 1, words);
  if (words_read != nullptr) *words_read += words;
  return found;
}

NodeId SinkIndex::select(std::size_t k, NodeId skip, std::uint64_t* words_read) const {
  // Descend from the top word: walk each word's non-empty children in
  // order, subtracting their counts until the one holding the k-th member.
  std::uint64_t words = 0;
  std::size_t index = 0;
  for (std::size_t level = levels_ - 1; level > 0; --level) {
    ++words;
    for (std::uint64_t bits = words_[offset_[level] + index]; bits != 0; bits &= bits - 1) {
      const std::size_t child = index * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      ++words;
      if (k < counts_[offset_[level - 1] + child]) {
        index = child;
        break;
      }
      k -= counts_[offset_[level - 1] + child];
    }
  }
  ++words;
  std::uint64_t bits = words_[index];
  for (; k > 0; --k) bits &= bits - 1;
  NodeId found = static_cast<NodeId>(index * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  // Leaving out a member at or below the k-th shifts the answer to the next.
  if (skip <= found) {
    ++words;  // the membership test
    if (contains(skip)) found = next_member(found + std::size_t{1}, words);
  }
  if (words_read != nullptr) *words_read += words;
  return found;
}

}  // namespace lr
