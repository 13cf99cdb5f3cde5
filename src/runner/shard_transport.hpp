#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/shard_protocol.hpp"

/// \file shard_transport.hpp
/// The transport abstraction of the sharded sweep dataplane: how a
/// coordinator (runner/shard_coordinator.hpp) reaches the workers that
/// execute its shards.  Every worker runs the same session
/// (runner/shard_server.hpp) over a connected stream socket, so a
/// transport only has to (1) connect a socket to a fresh session, (2)
/// ship the shard request, and (3) hand the socket back as a pollable
/// channel.  Two transports ship:
///
///   - ProcessShardTransport: a socketpair whose other end a fork/exec'd
///     `sweep-worker` child inherits as stdin and stdout,
///   - TcpShardTransport: a TCP connection to a remote `shard-server`
///     daemon,
///
/// plus FaultyTransport, a deterministic fault-injection decorator that
/// wraps either one and corrupts / drops / stalls / delays the byte
/// stream of a chosen shard's first attempts (the LR_TEST_TRANSPORT_FAULT
/// knob).

namespace lr {

/// One contiguous shard of a sweep's workload order (workload_order()
/// below): positions [begin, end) of that order.
struct ShardRange {
  std::size_t begin = 0;  ///< first position of the shard
  std::size_t end = 0;    ///< one past the last position

  /// Number of runs in the shard.
  std::size_t size() const noexcept { return end - begin; }

  /// Ranges compare by their bounds.
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// A sweep's workload order: its run indexes, workload by workload
/// (group_by_workload).  Shards are ranges of positions in this order.
std::vector<std::size_t> workload_order(const std::vector<RunSpec>& runs);

/// Deterministically partitions the `runs` positions of a sweep's workload
/// order into `shards` contiguous, maximally balanced ranges (sizes differ
/// by at most one, larger shards first), so at most shards - 1 workloads
/// straddle a boundary.  `shards` is clamped to `runs` so no shard is
/// empty; runs = 0 yields no shards.  This is fixed merge contract: each
/// run lives in the same shard on every machine and every invocation.
std::vector<ShardRange> shard_ranges(std::size_t runs, std::size_t shards);

/// One dispatched attempt of a shard, as the coordinator logs it —
/// surfaced through `lr_cli sweep --shard-log` so operators can see
/// which endpoint served (or killed) each attempt and how long it took.
struct ShardAttemptLog {
  std::size_t attempt = 0;   ///< zero-based attempt number
  std::string endpoint;      ///< transport endpoint that served the attempt
  std::string outcome;       ///< "ok" or the failure description
  long long elapsed_ms = 0;  ///< dispatch to completion / failure
  long long backoff_ms = 0;  ///< retry-policy delay imposed before dispatch
};

/// What happened to one shard across all its attempts — surfaced so a
/// failed sweep can say exactly which shard died how, and a recovered
/// one can report the retries and reassignments it absorbed.
struct ShardDiagnostics {
  std::size_t shard = 0;              ///< shard index
  ShardRange range;                   ///< the shard's workload-order positions
  std::size_t attempts = 0;           ///< attempts dispatched for this shard
  bool completed = false;             ///< shard delivered all its records
  std::vector<std::string> failures;  ///< one human-readable line per failed attempt
  std::vector<ShardAttemptLog> attempt_log;  ///< every attempt, incl. the successful one
};

/// Result of ShardChannel::read_some.
struct ChannelRead {
  /// What the read produced.
  enum class Kind : std::uint8_t {
    kData,        ///< `bytes` bytes were written into the buffer
    kWouldBlock,  ///< nothing available right now; poll again
    kEof,         ///< orderly end of stream
    kError,       ///< transport failure; `error` describes it
  };
  Kind kind = Kind::kWouldBlock;  ///< outcome discriminator
  std::size_t bytes = 0;          ///< bytes read when kind == kData
  std::string error;              ///< description when kind == kError
};

/// One live shard attempt's byte stream, as the coordinator consumes it.
/// The channel owns the socket and, for a process worker, the child;
/// exactly one of abort() / complete() should be called, else
/// destruction ends the attempt implicitly (destructors abort).
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// File descriptor to poll for readability.
  virtual int poll_fd() const noexcept = 0;

  /// Nonblocking read of up to `capacity` bytes into `buffer`.
  virtual ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) = 0;

  /// Sends a coordinator -> worker liveness beacon.  Returns an empty
  /// string on success, else a failure description (the coordinator
  /// treats a failed heartbeat like any other channel failure).
  virtual std::string send_heartbeat(std::uint64_t sequence) = 0;

  /// Abandons the attempt — closes the socket and kills and reaps the
  /// child, if any.  Returns a status description for diagnostics (e.g.
  /// the child's wait status).  Idempotent.
  virtual std::string abort() = 0;

  /// Releases the channel after a clean shard completion (closes the
  /// socket, reaps the child).  Idempotent.
  virtual void complete() = 0;
};

/// Result of ShardTransport::start.
struct ShardStart {
  std::unique_ptr<ShardChannel> channel;  ///< live channel, or null on failure
  std::string error;  ///< failure description when channel is null
};

/// A place that can execute shard attempts: a factory of ShardChannels.
/// `capacity()` is how many attempts the coordinator may run there
/// concurrently (worker processes, or connections to a TCP host).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Human-readable endpoint name ("process", "127.0.0.1:7071") used in
  /// diagnostics and the shard log.
  virtual const std::string& endpoint() const noexcept = 0;

  /// Concurrent attempts this transport can serve.
  virtual std::size_t capacity() const noexcept = 0;

  /// Starts one shard attempt by opening a session and shipping
  /// `request`; blocks at most `start_timeout_ms`.  A failure (fork
  /// failure, connection refused, timeout shipping the request) is
  /// returned, not thrown — the coordinator charges it against the
  /// shard's retry budget and the endpoint's liveness score.
  virtual ShardStart start(const ShardRequestFrame& request, int start_timeout_ms) = 0;
};

/// Local worker processes: every start() fork/execs this process's own
/// binary (/proc/self/exe) as `<binary> sweep-worker`, a fresh
/// shared-nothing process that inherits one end of a socketpair as its
/// stdin and stdout.  Crash isolation is the process boundary; the
/// channel owns the child and kills it on abort().
class ProcessShardTransport : public ShardTransport {
 public:
  /// `workers` is the concurrent-attempt capacity (>= 1).
  explicit ProcessShardTransport(std::size_t workers);

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request, int start_timeout_ms) override;

 private:
  std::size_t workers_;
  std::string endpoint_ = "process";
};

/// One remote `shard-server` endpoint (runner/shard_server.hpp): every
/// start() opens a fresh TCP connection, ships the request, and returns
/// the socket as the channel.
class TcpShardTransport : public ShardTransport {
 public:
  /// Endpoint `host:port` with `workers` concurrent connections.
  TcpShardTransport(std::string host, std::uint16_t port, std::size_t workers);

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request, int start_timeout_ms) override;

 private:
  std::string host_;
  std::uint16_t port_;
  std::size_t workers_;
  std::string endpoint_;
};

/// One `host:port[*workers]` entry of `lr_cli sweep --hosts`.
struct HostSpec {
  std::string host;          ///< hostname or dotted-quad address
  std::uint16_t port = 0;    ///< TCP port, 1..65535
  std::size_t workers = 1;   ///< concurrent shard connections to the host

  /// Specs compare field-wise.
  friend bool operator==(const HostSpec&, const HostSpec&) = default;
};

/// Parses a `--hosts` list: comma-separated `host:port[*workers]`
/// entries, e.g. "10.0.0.1:7071*4,10.0.0.2:7071*4".  Throws
/// std::invalid_argument, naming the offending entry, on an empty list,
/// a missing/empty host or port, a port outside 1..65535, a zero or
/// non-numeric worker count, or trailing garbage.
std::vector<HostSpec> parse_host_list(const std::string& text);

/// A deterministic fault, armed for the first `attempts` attempts of one
/// shard.  Parsed from the LR_TEST_TRANSPORT_FAULT environment knob
/// (`kind:shard[:attempts[:at_byte]]`), which wraps every primary
/// transport of a sweep, processes included.
struct TransportFault {
  /// Fault classes.
  enum class Kind : std::uint8_t {
    kNone,            ///< no fault
    kConnectRefuse,   ///< `connect`: start() fails as if the host were down
    kDrop,            ///< `drop`: connection closed (child killed) mid-shard
    kCorrupt,         ///< `corrupt`: one byte of the stream flipped
    kHeartbeatStall,  ///< `hbstall`: stream goes silent mid-shard
    kDelay,           ///< `delay`: bytes trickle through a slowed link
  };
  Kind kind = Kind::kNone;    ///< which fault to inject
  std::size_t shard = 0;      ///< target shard
  std::size_t attempts = 1;   ///< arm on attempts [0, attempts)
  std::size_t at_byte = 200;  ///< stream offset where drop/corrupt/stall triggers
  std::uint32_t delay_ms = 2;  ///< per-read delay of the `delay` fault
};

/// Parses `kind:shard[:attempts[:at_byte]]` (kind in connect|drop|
/// corrupt|hbstall|delay; `at_byte` overrides the default stream
/// offset); throws std::invalid_argument on malformed input.
TransportFault parse_transport_fault(const std::string& text);

/// Decorator injecting one TransportFault into an inner transport's byte
/// stream, deterministically: attempt k of shard s either is or is not
/// faulted as a pure function of the plan, so every test run exercises
/// the identical failure schedule.  Attempts outside the plan pass
/// through untouched.
class FaultyTransport : public ShardTransport {
 public:
  /// Wraps `inner`, injecting `fault`.
  FaultyTransport(std::shared_ptr<ShardTransport> inner, TransportFault fault);

  const std::string& endpoint() const noexcept override { return inner_->endpoint(); }
  std::size_t capacity() const noexcept override { return inner_->capacity(); }
  ShardStart start(const ShardRequestFrame& request, int start_timeout_ms) override;

 private:
  std::shared_ptr<ShardTransport> inner_;
  TransportFault fault_;
};

}  // namespace lr
