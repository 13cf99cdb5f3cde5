#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/runner.hpp"

/// \file shard_protocol.hpp
/// The wire protocol between a sweep coordinator
/// (runner/shard_coordinator.hpp) and its shard workers: a small
/// length-prefixed binary framing over one connected stream socket.  A
/// worker is either a fork/exec'd `sweep-worker` child holding one end of
/// a socketpair, or a remote `shard-server` daemon reached over TCP; both
/// run the same session (runner/shard_server.hpp).
///
/// Frame layout (all integers little-endian):
///
///     u32 magic ("LRSH")  |  u8 type  |  u32 payload_len  |
///     payload_len bytes   |  u64 fnv1a(type || payload)
///
/// Coordinator -> worker: one kShardRequest opening the attempt, then
/// kHeartbeat frames proving the coordinator is still alive.  Worker ->
/// coordinator: one kHello (handshake: protocol version, shard index,
/// range, attempt), then one kRecord per run of the shard in the sweep's
/// workload order (workload_order() in runner/shard_transport.hpp; a
/// shard is a range of positions in that order), then one kShardDone
/// (record count + the worker's cache counters), with kHeartbeat frames
/// interleaved at any point after the hello.  A worker that cannot start
/// the shard (bad spec, version skew) answers with a single kShardError
/// instead of a hello.
///
/// A record frame carries the run's global (expansion) index and
/// spec_digest() of its RunSpec, not the spec itself: the coordinator
/// holds the expansion, checks the digest against its own run #k, and
/// takes the spec from there.
///
/// Everything else — wrong magic, a payload over kMaxFramePayload, a
/// checksum mismatch, an unknown enum value inside a record, trailing
/// payload bytes, EOF mid-frame — is a protocol error the coordinator
/// treats exactly like a worker crash: abort the attempt, retry the shard
/// (tests/shard_protocol_test.cpp pins the rejection behavior, including
/// randomized fuzzes over frame boundaries and single-byte corruption).
///
/// Version skew is rejected loudly in both directions and can never
/// hang: the coordinator rejects a hello of another version by its
/// version field, and a worker refuses a request of another version with
/// a kShardError naming both versions.
///
/// The parser is deliberately incremental (feed() bytes as the socket
/// yields them, next() yields complete frames) so the coordinator can
/// multiplex many workers over poll() without threads, and so tests can
/// replay a stream at any chunking.

namespace lr {

/// Frame discriminator on the wire.
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< worker handshake, first frame of every attempt
  kRecord = 2,        ///< one finished run, in the shard's workload order
  kShardDone = 3,     ///< shard complete: record count + cache counters
  kHeartbeat = 4,     ///< liveness beacon, either direction
  kShardRequest = 5,  ///< coordinator -> worker shard assignment
  kShardError = 6,    ///< worker -> coordinator loud refusal
};

/// Wire magic prefixing every frame ("LRSH" little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x4853524cu;

/// Protocol version carried by the hello and shard-request frames;
/// coordinator and worker must match exactly (workers are normally the
/// same binary, so a mismatch means build or deployment skew across
/// hosts — a situation to reject loudly, never to paper over).
/// Version 3 added the heartbeat / shard-request / shard-error frames;
/// version 4 added the request's snapshot_dir and replaced the record
/// frame's spec fields with spec_digest(); version 5 added the done
/// frame's snapshot load and save counters; version 6 cut shards from the
/// workload order instead of the expansion order and dropped the request's
/// cache cap and the done frame's eviction count.
inline constexpr std::uint32_t kShardProtocolVersion = 6;

/// Upper bound on a frame payload.  Records are a few hundred bytes;
/// anything near this limit is garbage (e.g. random bytes read as a
/// length field) and is rejected without allocating.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// A malformed or out-of-contract byte stream.  The coordinator maps this
/// to "worker failed, retry the shard", same as a crash.
class ShardProtocolError : public std::runtime_error {
 public:
  explicit ShardProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Handshake payload: which shard this attempt serves.
struct HelloFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the coordinator's
  std::uint64_t shard = 0;    ///< shard index the worker was assigned
  std::uint64_t begin = 0;    ///< first workload-order position of the shard
  std::uint64_t end = 0;      ///< one past the last position
  std::uint64_t attempt = 0;  ///< 0 = first try, +1 per retry
};

/// One finished run: the record plus where it lands in the merged table.
/// On the wire the record's spec travels as spec_digest(record.spec);
/// decoding fills `spec_digest` and leaves `record.spec` default, for the
/// receiver to restore from its own expansion.
struct RecordFrame {
  std::uint64_t global_index = 0;  ///< expansion index in the full sweep
  RunRecord record;                ///< the run's record (spec not decoded)
  std::uint64_t spec_digest = 0;   ///< decoded digest of the sender's spec
};

/// End-of-shard marker: lets the coordinator distinguish a complete shard
/// from a worker that died after its last record but before finishing.
struct ShardDoneFrame {
  std::uint64_t records_emitted = 0;  ///< must equal end - begin
  SweepCacheStats cache;              ///< the worker's private cache and snapshot counters
};

/// Liveness beacon.  Either end sends one whenever it has produced
/// no other frame for a while; receiving *any* frame resets the
/// receiver's inactivity watchdog, so heartbeats only flow when the
/// channel would otherwise look dead (a worker mid-long-run, a
/// coordinator waiting on other shards).
struct HeartbeatFrame {
  std::uint8_t from_coordinator = 0;  ///< 1 = coordinator -> worker
  std::uint64_t sequence = 0;         ///< per-connection beacon counter
};

/// Shard assignment, coordinator -> worker.  Opens every session:
/// everything a worker needs to execute the runs at positions
/// [begin, end) of the workload order of the sweep `spec_text` expands to.
struct ShardRequestFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the worker's
  std::uint64_t shard = 0;        ///< shard index being assigned
  std::uint64_t begin = 0;        ///< first workload-order position of the shard
  std::uint64_t end = 0;          ///< one past the last position
  std::uint64_t total = 0;        ///< the full sweep's run count (cross-check)
  std::uint64_t attempt = 0;      ///< 0 = first try, +1 per retry
  std::uint64_t threads = 1;      ///< worker-internal thread count (at most kMaxThreads)
  std::uint32_t heartbeat_ms = 0;       ///< worker beacon interval (0 = default)
  std::uint32_t liveness_timeout_ms = 0;  ///< worker-side coordinator watchdog
  std::string spec_text;          ///< canonical sweep spec (format_sweep_spec)
  std::string snapshot_dir;       ///< worker SweepCache snapshot dir (empty = none)
};

/// Loud refusal, worker -> coordinator: the worker cannot serve the
/// request (version skew, unparseable spec, run-count mismatch) and says
/// why before closing, so the coordinator's diagnostics name the cause
/// instead of a bare EOF.
struct ShardErrorFrame {
  std::string message;  ///< human-readable reason
};

/// A decoded frame; `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kHello;  ///< which payload member is live
  HelloFrame hello;                    ///< payload when type == kHello
  RecordFrame record;                  ///< payload when type == kRecord
  ShardDoneFrame done;                 ///< payload when type == kShardDone
  HeartbeatFrame heartbeat;            ///< payload when type == kHeartbeat
  ShardRequestFrame request;           ///< payload when type == kShardRequest
  ShardErrorFrame error;               ///< payload when type == kShardError
};

/// Encodes one frame (header + payload + checksum) to wire bytes.
std::vector<std::uint8_t> encode_frame(const HelloFrame& hello);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const RecordFrame& record);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardDoneFrame& done);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const HeartbeatFrame& heartbeat);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardRequestFrame& request);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardErrorFrame& error);

/// Incremental frame decoder: feed() raw socket bytes in any chunking,
/// pull complete frames with next().  Throws ShardProtocolError on the
/// first malformed byte; the instance is then unusable (the coordinator
/// discards it with the worker).
class FrameParser {
 public:
  /// Appends `size` raw bytes to the parse buffer.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Decodes and returns the next complete frame, or nullopt when the
  /// buffered bytes end mid-frame (feed more).  Throws ShardProtocolError
  /// on bad magic, oversized length, checksum mismatch, or an
  /// undecodable payload.
  std::optional<Frame> next();

  /// True when undecoded bytes are buffered — at worker EOF this means
  /// the stream was truncated mid-frame, which the coordinator must treat
  /// as a failed attempt, never as a clean end.
  bool mid_frame() const noexcept { return consumed_ < buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already decoded
};

}  // namespace lr
