#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runner/retry_policy.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_transport.hpp"

/// \file shard_coordinator.hpp
/// The transport-agnostic shard coordinator of the sweep dataplane: one
/// poll() loop that keeps one worker session open per lane of any mix of
/// ShardTransports (runner/shard_transport.hpp), hands each session its
/// next claim as soon as it finishes one, merges their record streams,
/// and owns every robustness decision — inactivity watchdogs, coordinator
/// heartbeats, backoff-scheduled retries (runner/retry_policy.hpp),
/// endpoint-death detection, claim reassignment to surviving endpoints,
/// and the local-process fallback when every remote endpoint is gone.
///
/// make_shard_coordinator() builds the one coordinator `lr_cli sweep`
/// shards through: one ProcessShardTransport for `--processes`, or one
/// TcpShardTransport per `--hosts` entry plus an optional process
/// fallback.  The sweep is cut into claims (plan_claims(): whole
/// workloads, largest first), so a lane that draws cheap workloads simply
/// serves more claims.  A session is opened on a lane when a claim needs
/// one, stays open while claims remain (or a retry waits out its
/// backoff), and is closed once nothing is left to claim.  The merge
/// contract is owned here, once: each claim's records must arrive in
/// workload order, every record's spec digest is checked against the
/// coordinator's own expansion, and the record is written to its global
/// (expansion) slot with the spec taken from that expansion, so the
/// merged tables are byte-identical to the in-process runner's at every
/// transport mix, worker count, and fault schedule — retries and
/// reassignments simply overwrite slots with identical bytes.
///
/// Liveness state machine (docs/ARCHITECTURE.md §"The shard dataplane"):
/// every open session carries a deadline that any received frame —
/// worker heartbeats included — pushes forward; a silent session past
/// the deadline is an unresponsive worker, aborted, and the claim it was
/// serving (if any) charged and re-queued.  Failures (crash, EOF,
/// protocol violation, stall, refused connect, failed write) increment
/// the serving endpoint's consecutive-failure count; at two in a row the
/// endpoint is declared dead and receives no new work, and its claims are
/// reassigned to surviving endpoints (preferring an endpoint other than
/// the one that just failed).  An endpoint that later completes a claim
/// is resurrected.  When every endpoint is dead the coordinator engages
/// the fallback transport once, if configured; otherwise it fails
/// loudly with per-claim diagnostics.  Every wait in the loop is
/// deadline-bounded, so no configuration can hang.

namespace lr {

/// Configuration of a ShardCoordinator.
struct CoordinatorOptions {
  /// Attempt budget and backoff schedule; max_attempts counts total
  /// tries per claim (first + retries).
  RetryPolicy retry;

  /// Inactivity watchdog per session, in milliseconds: a session whose
  /// channel yields no frame for this long is aborted, and the claim it
  /// was serving charged.  The LR_TEST_WORKER_TIMEOUT_MS environment
  /// variable overrides it.
  int timeout_ms = 30'000;

  /// Error-message prefix naming the backend ("multi-process sweep",
  /// "multi-host sweep").
  std::string label = "sweep";

  std::size_t threads = 1;      ///< worker-internal thread count
  std::string snapshot_dir;     ///< worker SweepCache snapshot dir (empty = none)
};

/// The generic coordinator: shards a sweep's claims across the sessions of
/// `transports` (and, when every one of them dies, `fallback`) and merges
/// the streams.
/// See the file comment for the dataplane and liveness contracts.
class ShardCoordinator {
 public:
  /// Creates a coordinator over `transports` (at least one required).
  /// `fallback`, when non-null, is held in reserve and engaged only if
  /// every primary endpoint is declared dead mid-sweep.
  ShardCoordinator(CoordinatorOptions options,
                   std::vector<std::shared_ptr<ShardTransport>> transports,
                   std::shared_ptr<ShardTransport> fallback = nullptr);

  /// Expands `spec`, runs every claim to completion across the
  /// endpoints (retrying, reassigning, and falling back within budget),
  /// and returns the merged report, byte-identical to the in-process
  /// runner's.  Its cache counters sum the claims' (`peak_entries` sums
  /// each session's most held at once).  Throws std::runtime_error with
  /// per-claim diagnostics when a claim exhausts its attempts or every
  /// endpoint dies with work outstanding — never hangs, never silently
  /// drops runs.
  SweepReport run(const SweepSpec& spec);

  /// Per-claim attempt/failure log of the most recent run() call (valid
  /// after both success and failure), indexed by claim.
  const std::vector<ShardDiagnostics>& shard_diagnostics() const noexcept {
    return diagnostics_;
  }

  /// True when the most recent run() had to engage the fallback
  /// transport because every primary endpoint died.
  bool fallback_engaged() const noexcept { return fallback_engaged_; }

  /// Sum of the primary transports' capacities: the lanes the claims are
  /// planned for, each holding at most one session at a time.
  std::size_t total_capacity() const noexcept;

 private:
  CoordinatorOptions options_;
  std::vector<std::shared_ptr<ShardTransport>> transports_;
  std::shared_ptr<ShardTransport> fallback_;
  std::vector<ShardDiagnostics> diagnostics_;
  bool fallback_engaged_ = false;
};

/// Builds the coordinator of a sharded `lr_cli sweep` from its options.
/// With no `hosts`, the sweep runs on `options.process_workers` local
/// worker processes (which must be >= 1) and the workers share
/// `options.snapshot_dir`.  With hosts, each host serves
/// `HostSpec::workers` concurrent TCP sessions and `process_workers > 0`
/// arms a local process fallback engaged only when every host dies;
/// snapshot_dir is not forwarded (remote hosts do not share this
/// filesystem).  `threads` is the thread count inside each session,
/// `worker_retries` / `worker_timeout_ms` the retry budget and the
/// inactivity watchdog.  The LR_TEST_TRANSPORT_FAULT environment variable
/// (`kind:shard[:attempts[:at_byte]]`, kind in connect|drop|corrupt|
/// hbstall|delay) wraps every primary transport in a deterministic
/// FaultyTransport — the fault batteries of tests/process_runner_test.cpp
/// and tests/multi_host_runner_test.cpp.  Throws std::invalid_argument
/// when there is nowhere to run or the fault knob is malformed.
ShardCoordinator make_shard_coordinator(const RunnerOptions& options,
                                        const std::vector<HostSpec>& hosts);

}  // namespace lr
