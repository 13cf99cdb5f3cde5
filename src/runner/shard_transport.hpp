#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/shard_protocol.hpp"

/// \file shard_transport.hpp
/// The transport abstraction of the sharded sweep dataplane: how a
/// coordinator (runner/shard_coordinator.hpp) reaches the worker sessions
/// that execute its claims.  Every worker runs the same session
/// (runner/shard_server.hpp) over a connected stream socket, so a
/// transport only has to (1) connect a socket to a fresh session, (2)
/// ship the session request and its first claim, and (3) hand the socket
/// back as a pollable channel, over which the coordinator sends the
/// session's later claims.  Two transports ship:
///
///   - ProcessShardTransport: a socketpair whose other end a fork/exec'd
///     `sweep-worker` child inherits as stdin and stdout,
///   - TcpShardTransport: a TCP connection to a remote `shard-server`
///     daemon,
///
/// plus FaultyTransport, a deterministic fault-injection decorator that
/// wraps either one and corrupts / drops / stalls / delays the byte
/// stream of the sessions a chosen claim's first attempts open (the
/// LR_TEST_TRANSPORT_FAULT knob).

namespace lr {

/// One contiguous range of a sweep's workload order (workload_order()
/// below): positions [begin, end) of that order.  A claim is one.
struct ShardRange {
  std::size_t begin = 0;  ///< first position of the range
  std::size_t end = 0;    ///< one past the last position

  /// Number of runs in the range.
  std::size_t size() const noexcept { return end - begin; }

  /// Ranges compare by their bounds.
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// A sweep's workload order: its run indexes, workload by workload
/// (group_by_workload).  Claims are ranges of positions in this order.
std::vector<std::size_t> workload_order(const std::vector<RunSpec>& runs);

/// Deterministically partitions `runs` positions into `parts` contiguous,
/// maximally balanced ranges (sizes differ by at most one, larger ranges
/// first).  `parts` is clamped to `runs` so no range is empty; runs = 0
/// yields no ranges.  plan_claims() falls back to it.
std::vector<ShardRange> shard_ranges(std::size_t runs, std::size_t parts);

/// The claims of a sweep over `lanes` worker sessions: a deterministic
/// cut of the workload order of `runs` into contiguous ranges, handed to
/// the sessions on demand, largest first.  Guided self-scheduling over
/// whole workloads: each claim takes workloads from the front of the
/// order until it holds at least ceil(remaining runs / (2 x lanes)) runs,
/// so early claims amortize the dispatch and the last ones even out the
/// lanes' finishing times.  Every workload thus lies in one claim and is
/// built once, and claim sizes never increase when every workload holds
/// the same number of runs (as in any sweep without repeated axis
/// values).  A sweep with fewer workloads than lanes is instead cut into
/// shard_ranges(runs, lanes), so one huge workload still spreads across
/// the lanes.  Fixed merge contract: each run lies in the same claim on
/// every machine and every invocation.
std::vector<ShardRange> plan_claims(const std::vector<RunSpec>& runs, std::size_t lanes);

/// One dispatched attempt of a claim, as the coordinator logs it —
/// surfaced through `lr_cli sweep --shard-log` so operators can see
/// which endpoint and session served (or killed) each attempt and how
/// long it took.
struct ShardAttemptLog {
  std::size_t attempt = 0;   ///< zero-based attempt number
  std::string endpoint;      ///< transport endpoint that served the attempt
  std::string outcome;       ///< "ok" or the failure description
  long long elapsed_ms = 0;  ///< dispatch to completion / failure
  long long backoff_ms = 0;  ///< retry-policy delay imposed before dispatch
  /// Index of the worker session that served the attempt, numbered from 0
  /// in the order the coordinator opened them (a session that failed to
  /// open keeps its number).
  std::size_t session = 0;
};

/// What happened to one claim across all its attempts — surfaced so a
/// failed sweep can say exactly which claim died how, and a recovered
/// one can report the retries and reassignments it absorbed.
struct ShardDiagnostics {
  std::size_t shard = 0;              ///< claim index
  ShardRange range;                   ///< the claim's workload-order positions
  std::size_t attempts = 0;           ///< attempts dispatched for this claim
  bool completed = false;             ///< claim delivered all its records
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

/// One live worker session's byte stream, as the coordinator consumes it.
/// The channel owns the socket and, for a process worker, the child;
/// exactly one of abort() / complete() should be called, else
/// destruction ends the session implicitly (destructors abort).  The
/// destructor reaps the child.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// File descriptor to poll for readability.
  virtual int poll_fd() const noexcept = 0;

  /// Nonblocking read of up to `capacity` bytes into `buffer`.
  virtual ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) = 0;

  /// Sends one encoded coordinator -> worker frame: a claim or a liveness
  /// beacon.  Returns an empty string on success, else a failure
  /// description (the coordinator treats a failed send like any other
  /// channel failure).  A peer that closed its end is left to the read
  /// side, which reports the frames it sent before closing and then EOF.
  virtual std::string send(const std::vector<std::uint8_t>& frame) = 0;

  /// Abandons the session — closes the socket and kills and reaps the
  /// child, if any.  Returns a status description for diagnostics (e.g.
  /// the child's wait status).  Idempotent.
  virtual std::string abort() = 0;

  /// Ends the session cleanly once it has no claim left to serve: closes
  /// the socket, on which the worker sees EOF and exits.  The destructor
  /// reaps the child, so a caller that keeps ended channels until it has
  /// closed them all lets the workers exit in parallel.  Idempotent.
  virtual void complete() = 0;
};

/// Result of ShardTransport::start.
struct ShardStart {
  std::unique_ptr<ShardChannel> channel;  ///< live channel, or null on failure
  std::string error;  ///< failure description when channel is null
};

/// A place that can run worker sessions: a factory of ShardChannels.
/// `capacity()` is how many sessions the coordinator may keep open there
/// at once (worker processes, or connections to a TCP host).
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Human-readable endpoint name ("process", "127.0.0.1:7071") used in
  /// diagnostics and the shard log.
  virtual const std::string& endpoint() const noexcept = 0;

  /// Concurrent sessions this transport can serve.
  virtual std::size_t capacity() const noexcept = 0;

  /// Opens one session and ships `request` and the session's first
  /// claim; blocks at most `start_timeout_ms`.  A failure (fork failure,
  /// connection refused, timeout shipping the request) is returned, not
  /// thrown — the coordinator charges it against the claim's retry budget
  /// and the endpoint's liveness score.
  virtual ShardStart start(const ShardRequestFrame& request, const ClaimFrame& first_claim,
                           int start_timeout_ms) = 0;
};

/// Local worker processes: every start() fork/execs this process's own
/// binary (/proc/self/exe) as `<binary> sweep-worker`, a fresh
/// shared-nothing process that inherits one end of a socketpair as its
/// stdin and stdout and serves one session.  Crash isolation is the
/// process boundary; the channel owns the child and kills it on abort().
class ProcessShardTransport : public ShardTransport {
 public:
  /// `workers` is the concurrent-attempt capacity (>= 1).
  explicit ProcessShardTransport(std::size_t workers);

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request, const ClaimFrame& first_claim,
                   int start_timeout_ms) override;

 private:
  std::size_t workers_;
  std::string endpoint_ = "process";
};

/// One remote `shard-server` endpoint (runner/shard_server.hpp): every
/// start() opens a fresh TCP connection, ships the request and the first
/// claim, and returns the socket as the channel.
class TcpShardTransport : public ShardTransport {
 public:
  /// Endpoint `host:port` with `workers` concurrent connections.
  TcpShardTransport(std::string host, std::uint16_t port, std::size_t workers);

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request, const ClaimFrame& first_claim,
                   int start_timeout_ms) override;

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
  std::size_t workers = 1;   ///< concurrent sessions (connections) to the host

  /// Specs compare field-wise.
  friend bool operator==(const HostSpec&, const HostSpec&) = default;
};

/// Parses a `--hosts` list: comma-separated `host:port[*workers]`
/// entries, e.g. "10.0.0.1:7071*4,10.0.0.2:7071*4".  Throws
/// std::invalid_argument, naming the offending entry, on an empty list,
/// a missing/empty host or port, a port outside 1..65535, a zero or
/// non-numeric worker count, or trailing garbage.
std::vector<HostSpec> parse_host_list(const std::string& text);

/// A deterministic fault, armed on the sessions opened by the first
/// `attempts` attempts of one claim: `shard` is the claim whose dispatch
/// opens the faulted session, and the fault acts on that session's whole
/// byte stream, whichever claims it goes on to serve.  Parsed from the
/// LR_TEST_TRANSPORT_FAULT environment knob
/// (`kind:shard[:attempts[:at_byte]]`), which wraps every primary
/// transport of a sweep, processes included.
struct TransportFault {
  /// Fault classes.
  enum class Kind : std::uint8_t {
    kNone,            ///< no fault
    kConnectRefuse,   ///< `connect`: start() fails as if the host were down
    kDrop,            ///< `drop`: connection closed (child killed) mid-stream
    kCorrupt,         ///< `corrupt`: one byte of the stream flipped
    kHeartbeatStall,  ///< `hbstall`: stream goes silent mid-stream
    kDelay,           ///< `delay`: bytes trickle through a slowed link
  };
  Kind kind = Kind::kNone;    ///< which fault to inject
  std::size_t shard = 0;      ///< claim whose dispatch opens the faulted session
  std::size_t attempts = 1;   ///< arm on that claim's attempts [0, attempts)
  std::size_t at_byte = 200;  ///< session stream offset where drop/corrupt/stall triggers
  std::uint32_t delay_ms = 2;  ///< per-read delay of the `delay` fault
};

/// Parses `kind:shard[:attempts[:at_byte]]` (kind in connect|drop|
/// corrupt|hbstall|delay; `at_byte` overrides the default stream
/// offset); throws std::invalid_argument on malformed input.
TransportFault parse_transport_fault(const std::string& text);

/// Decorator injecting one TransportFault into an inner transport's byte
/// stream, deterministically: the session opened by attempt k of claim s
/// either is or is not faulted as a pure function of the plan, so every
/// test run exercises the identical failure schedule.  Sessions outside
/// the plan pass through untouched.
class FaultyTransport : public ShardTransport {
 public:
  /// Wraps `inner`, injecting `fault`.
  FaultyTransport(std::shared_ptr<ShardTransport> inner, TransportFault fault);

  const std::string& endpoint() const noexcept override { return inner_->endpoint(); }
  std::size_t capacity() const noexcept override { return inner_->capacity(); }
  ShardStart start(const ShardRequestFrame& request, const ClaimFrame& first_claim,
                   int start_timeout_ms) override;

 private:
  std::shared_ptr<ShardTransport> inner_;
  TransportFault fault_;
};

}  // namespace lr
