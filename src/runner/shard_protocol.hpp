#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/runner.hpp"

/// \file shard_protocol.hpp
/// The wire protocol between a sweep coordinator
/// (runner/shard_coordinator.hpp) and its worker sessions: a small
/// length-prefixed binary framing over one connected stream socket.  A
/// session is either a fork/exec'd `sweep-worker` child holding one end of
/// a socketpair, or a connection to a remote `shard-server` daemon; both
/// run the same session (runner/shard_server.hpp).
///
/// Frame layout (all integers little-endian):
///
///     u32 magic ("LRSH")  |  u8 type  |  u32 payload_len  |
///     payload_len bytes   |  u64 fnv1a(type || payload)
///
/// A session serves a sequence of *claims*: contiguous ranges of the
/// sweep's workload order (workload_order() and plan_claims() in
/// runner/shard_transport.hpp), handed out on demand.  Coordinator ->
/// worker: one kShardRequest opening the session (the spec text and the
/// session's settings), then one kClaim per claim, each sent once the
/// previous claim is done, and kHeartbeat frames proving the coordinator
/// is still alive.  Worker -> coordinator, per claim: one kHello
/// (handshake: protocol version, claim index, range, attempt), one
/// kRecord per run of the claim in workload order, then one kShardDone
/// (record count + the claim's cache counters), with kHeartbeat frames
/// interleaved at any point.  The coordinator ends the session by closing
/// its end after the last claim.  A worker that cannot serve the session
/// or a claim (bad spec, version skew, a range outside the sweep) answers
/// with a single kShardError and ends the session.
///
/// A record frame carries the run's global (expansion) index and
/// spec_digest() of its RunSpec, not the spec itself: the coordinator
/// holds the expansion, checks the digest against its own run #k, and
/// takes the spec from there.
///
/// Everything else — wrong magic, a payload over kMaxFramePayload, a
/// checksum mismatch, an unknown enum value inside a record, trailing
/// payload bytes, EOF mid-frame — is a protocol error the coordinator
/// treats exactly like a worker crash: abort the session, retry the claim
/// it was serving (tests/shard_protocol_test.cpp pins the rejection
/// behavior, including randomized fuzzes over frame boundaries and
/// single-byte corruption).
///
/// Version skew is rejected loudly in both directions and can never
/// hang: the coordinator rejects a hello of another version by its
/// version field, and a worker refuses a request of another version with
/// a kShardError naming both versions.
///
/// The parser is deliberately incremental (feed() bytes as the socket
/// yields them, next() yields complete frames) so the coordinator can
/// multiplex many sessions over poll() without threads, and so tests can
/// replay a stream at any chunking.

namespace lr {

/// Frame discriminator on the wire.
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< worker handshake, first frame of every claim's answer
  kRecord = 2,        ///< one finished run, in the claim's workload order
  kShardDone = 3,     ///< claim complete: record count + cache counters
  kHeartbeat = 4,     ///< liveness beacon, either direction
  kShardRequest = 5,  ///< coordinator -> worker session opening
  kShardError = 6,    ///< worker -> coordinator loud refusal
  kClaim = 7,         ///< coordinator -> worker: the next claim to serve
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
/// cache cap and the done frame's eviction count; version 7 made the
/// session persistent: the request opens it and carries no range, and
/// each claim travels in its own kClaim frame.
inline constexpr std::uint32_t kShardProtocolVersion = 7;

/// Upper bound on a frame payload.  Records are a few hundred bytes;
/// anything near this limit is garbage (e.g. random bytes read as a
/// length field) and is rejected without allocating.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// A malformed or out-of-contract byte stream.  The coordinator maps this
/// to "worker failed, retry the claim", same as a crash.
class ShardProtocolError : public std::runtime_error {
 public:
  explicit ShardProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Handshake payload: which claim the worker is about to serve.
struct HelloFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the coordinator's
  std::uint64_t shard = 0;    ///< index of the claim being served
  std::uint64_t begin = 0;    ///< first workload-order position of the claim
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

/// End-of-claim marker: lets the coordinator distinguish a complete claim
/// from a worker that died after its last record but before finishing.
struct ShardDoneFrame {
  std::uint64_t records_emitted = 0;  ///< must equal end - begin
  SweepCacheStats cache;              ///< the claim's private cache and snapshot counters
};

/// Liveness beacon.  Either end sends one whenever it has produced
/// no other frame for a while; receiving *any* frame resets the
/// receiver's inactivity watchdog, so heartbeats only flow when the
/// channel would otherwise look dead (a worker mid-long-run, a
/// coordinator waiting on other claims, an idle session).
struct HeartbeatFrame {
  std::uint8_t from_coordinator = 0;  ///< 1 = coordinator -> worker
  std::uint64_t sequence = 0;         ///< per-connection beacon counter
};

/// Session opening, coordinator -> worker: the sweep `spec_text` expands
/// to, which the session expands once, and the settings every claim of
/// the session runs under.
struct ShardRequestFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the worker's
  std::uint64_t total = 0;        ///< the full sweep's run count (cross-check)
  std::uint64_t threads = 1;      ///< worker-internal thread count (at most kMaxThreads)
  std::uint32_t heartbeat_ms = 0;       ///< worker beacon interval (0 = default)
  std::uint32_t liveness_timeout_ms = 0;  ///< worker-side coordinator watchdog
  std::string spec_text;          ///< canonical sweep spec (format_sweep_spec)
  std::string snapshot_dir;       ///< worker SweepCache snapshot dir (empty = none)
};

/// One claim, coordinator -> worker: execute the runs at positions
/// [begin, end) of the session's workload order.
struct ClaimFrame {
  std::uint64_t shard = 0;    ///< claim index (the `shard` of the diagnostics)
  std::uint64_t begin = 0;    ///< first workload-order position of the claim
  std::uint64_t end = 0;      ///< one past the last position
  std::uint64_t attempt = 0;  ///< 0 = first try, +1 per retry
};

/// Loud refusal, worker -> coordinator: the worker cannot serve the
/// session or a claim (version skew, unparseable spec, run-count
/// mismatch, a range outside the sweep) and says why before closing, so
/// the coordinator's diagnostics name the cause instead of a bare EOF.
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
  ClaimFrame claim;                    ///< payload when type == kClaim
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
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ClaimFrame& claim);

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
