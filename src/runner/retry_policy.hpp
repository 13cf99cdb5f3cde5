#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

/// \file retry_policy.hpp
/// The retry/backoff policy of the shard coordinator
/// (runner/shard_coordinator.hpp): how many attempts a failing shard
/// gets, and how long the coordinator waits before each re-dispatch.
///
/// The delay schedule is capped exponential backoff with *deterministic*
/// seeded jitter: `delay(attempt)` is a pure function of (policy, shard,
/// attempt), so a replayed sweep re-dispatches at the same instants and a
/// fleet of shards failing together de-synchronizes the same way every
/// run — the thundering-herd protection of random jitter without giving
/// up reproducible schedules in tests.

namespace lr {

/// Capped exponential backoff with deterministic per-(shard, attempt)
/// jitter.  `max_attempts` counts total tries (first + retries); the
/// delay before attempt k (k >= 1, zero-based) is
/// `min(initial << (k-1), cap)` scaled by a jitter factor in
/// [1 - jitter, 1] drawn from SplitMix64(seed ^ shard ^ k).
struct RetryPolicy {
  std::size_t max_attempts = 3;   ///< total tries per shard (first + retries)
  std::uint32_t initial_ms = 25;  ///< backoff before the first retry
  std::uint32_t cap_ms = 2'000;   ///< backoff ceiling
  double jitter = 0.5;            ///< jitter band width, in [0, 1]
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  ///< jitter stream seed

  /// Milliseconds to wait before dispatching `attempt` (zero-based) of
  /// `shard`.  Attempt 0 is the first try and never waits.  Pure: the
  /// same (policy, shard, attempt) always yields the same delay.
  std::chrono::milliseconds delay(std::size_t shard, std::size_t attempt) const {
    if (attempt == 0 || initial_ms == 0) return std::chrono::milliseconds{0};
    const std::uint32_t shift = static_cast<std::uint32_t>(std::min<std::size_t>(attempt - 1, 20));
    const std::uint64_t base =
        std::min<std::uint64_t>(std::uint64_t{initial_ms} << shift, cap_ms);
    // SplitMix64 over (seed ^ shard ^ attempt): a cheap, well-mixed pure
    // hash -- the same generator the sweep layer derives RNG streams from.
    std::uint64_t z = seed ^ (std::uint64_t{0x5851f42d4c957f2dULL} * shard) ^
                      (std::uint64_t{0x14057b7ef767814fULL} * attempt);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double band = std::clamp(jitter, 0.0, 1.0);
    const double fraction = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
    const double scaled = static_cast<double>(base) * (1.0 - band * fraction);
    return std::chrono::milliseconds{static_cast<std::int64_t>(scaled)};
  }
};

}  // namespace lr
