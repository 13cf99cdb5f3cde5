#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "routing/dynamic_heights.hpp"
#include "routing/leader_election.hpp"
#include "routing/mutex.hpp"
#include "routing/tora.hpp"
#include "service/latency_histogram.hpp"
#include "service/workload.hpp"
#include "sim/time_index.hpp"
#include "trace/report.hpp"

/// \file service_harness.hpp
/// The request-serving front end (docs/ARCHITECTURE.md §"Service
/// layer"): reframes the paper's three applications — routing, mutual
/// exclusion, leader election — as one live *service* under client
/// load, measured the way a client experiences it (per-request latency
/// percentiles and sustained throughput) instead of time-to-quiescence.
///
/// A harness owns one instance of each routing service over a shared
/// churning topology and drives `clients` closed-loop clients through a
/// virtual-time event loop (sim/time_index.hpp, so both scheduler
/// backends apply): each client issues a request, observes its latency,
/// thinks for a few ticks, and issues the next.  Link churn — random
/// flips at a fixed cadence, or an explicit script for fault-injection
/// tests — flows through `DynamicHeightsDag::add_link/remove_link`,
/// whose cost is proportional to the touched degree and the reversal
/// steps that follow, never to n.
///
/// Latency is measured in deterministic *virtual* units derived from
/// the work a request causes (1 + route hops, plus reversal steps for
/// lock grants), never from the wall clock, so every latency number is
/// part of the determinism contract.  Wall-clock throughput
/// (requests_per_sec) is reported separately and is explicitly outside
/// that contract.
///
/// Execution is serial: each tick applies its due churn, then serves
/// its batch of requests in issue order, tallying each one straight
/// into the report.  Lock grants mutate only the mutex DAG and reads
/// only touch the tora and leader DAGs, and every tally is an
/// order-free sum, so the report — traces, histograms, fingerprint — is
/// a function of the options alone and byte-identical under both
/// event-scheduler backends (tests/service_harness_test.cpp pins
/// heap/wheel).  Serial is deliberate: sharding the reads over a thread
/// pool measured no faster up to 10^6 nodes (docs/PERFORMANCE.md §E9.2).

namespace lr {

/// The request families a harness drives (the per-request axis; the
/// *mix* is chosen by ServiceWorkload).
enum class RequestKind : std::uint8_t {
  kRoute,   ///< route query against the TORA router's DAG
  kLock,    ///< lock acquire/release cycle against the mutex service
  kLeader,  ///< leader lookup against the leader-election service
};

/// Number of request families (array extent of per-kind stats).
inline constexpr std::size_t kRequestKinds = 3;

/// Report-table token of a request kind ("route", "lock", "leader").
const char* request_kind_token(RequestKind kind);

/// Terminal status of one request.  Everything except kOk is a
/// *failure with reason*: the request still completes (closed-loop
/// clients never wedge) but its latency is excluded from the
/// histograms.
enum class RequestStatus : std::uint8_t {
  kOk,           ///< served; latency recorded
  kPartitioned,  ///< source had no path to the target (link churn)
  kNoLeader,     ///< no leader exists (every node failed)
};

/// Report-table token of a status ("ok", "partitioned", "no-leader").
const char* request_status_token(RequestStatus status);

/// One issued request, as recorded in the (optional) trace: the
/// exactly-once accounting unit of the fault-injection tests.
struct ServiceRequest {
  std::uint64_t id = 0;        ///< issue-order id, unique per run
  RequestKind kind = RequestKind::kRoute;  ///< request family
  NodeId source = 0;           ///< issuing node
  SimTime issued = 0;          ///< virtual tick the request was issued
  std::uint64_t latency = 1;   ///< virtual latency units (see file comment)
  std::uint64_t hops = 0;      ///< route hops traveled (0 on failure)
  RequestStatus status = RequestStatus::kOk;  ///< terminal status
};

/// One scripted churn event: applied before the first request batch at
/// or after `time`.
struct ScriptedLinkEvent {
  SimTime time = 0;   ///< virtual tick the event takes effect
  LinkEvent event;    ///< the link flip
};

/// Configuration of a ServiceHarness run.
struct ServiceOptions {
  std::size_t clients = 8;          ///< closed-loop clients
  SimTime duration = 256;           ///< virtual ticks to run for
  ServiceWorkload workload = ServiceWorkload::kMixed;  ///< request mix
  std::uint64_t seed = 1;           ///< master seed of the RNG streams
  /// Event-scheduler backend of the virtual-time loop.  Purely a
  /// performance switch: reports are byte-identical across backends.
  EventSchedulerKind scheduler = EventSchedulerKind::kHeap;
  /// Random link-churn cadence in virtual ticks (0 = no random churn).
  /// Ignored when `churn_script` is set.
  SimTime churn_interval = 16;
  /// Explicit churn script (fault-injection hook); overrides random
  /// churn.  Events must be sorted by time.  Borrowed, may be null.
  const std::vector<ScriptedLinkEvent>* churn_script = nullptr;
  /// Keep the full per-request trace in the report (tests; off by
  /// default because a long run's trace dwarfs its histograms).
  bool keep_trace = false;
};

/// Per-request-kind measurement block.
struct ServiceKindStats {
  LatencyHistogram histogram;    ///< latencies of served (kOk) requests
  std::uint64_t issued = 0;      ///< requests issued
  std::uint64_t completed = 0;   ///< requests served ok
  std::uint64_t failed = 0;      ///< requests failed-with-reason
  std::uint64_t hops = 0;        ///< route hops of served requests
};

/// Everything one harness run produced.
struct ServiceReport {
  /// Per-kind stats, indexed by RequestKind.
  ServiceKindStats kinds[kRequestKinds];
  std::uint64_t churn_events = 0;      ///< link flips applied
  std::uint64_t reversal_steps = 0;    ///< reversal steps across all services
  std::uint64_t snapshot_patches = 0;  ///< effective link add/removes (churn path)
  std::uint64_t snapshot_rebuilds = 0; ///< adjacency builds (construction only)
  /// Per-request trace in issue order (empty unless keep_trace).
  std::vector<ServiceRequest> trace;
  /// Wall-clock seconds of the run loop — throughput only, explicitly
  /// outside the determinism contract.
  double wall_seconds = 0.0;

  /// Requests issued across all kinds.
  std::uint64_t total_issued() const noexcept;
  /// Requests served ok across all kinds.
  std::uint64_t total_completed() const noexcept;
  /// Requests failed-with-reason across all kinds.
  std::uint64_t total_failed() const noexcept;

  /// Wall-clock requests/second (issued / wall_seconds; 0 when the
  /// clock read 0).  Outside the determinism contract.
  double requests_per_sec() const noexcept;

  /// FNV-1a over every deterministic field (per-kind histograms and
  /// counters, churn and reversal totals) — the single number the
  /// scheduler / process-count invariance checks compare.
  std::uint64_t fingerprint() const noexcept;

  /// The latency report: one row per kind plus an "all" row merging
  /// the three.  Columns: kind, issued, completed, failed, p50, p99,
  /// p999, mean, max, hops, fingerprint — every cell deterministic.
  Table latency_table() const;
};

/// The request-serving harness; see the file comment.
class ServiceHarness {
 public:
  /// Builds the three services over `topology` (route/lock targets are
  /// `destination`; the leader is elected by the service) and prepares
  /// the client loop.  The topology must have at least one node.
  ServiceHarness(const Graph& topology, NodeId destination, ServiceOptions options);

  /// Runs the closed loop to `duration` and returns the report.  One
  /// shot: a harness runs once.
  ServiceReport run();

 private:
  void apply_churn_until(SimTime now);
  void apply_link_event(const LinkEvent& event);
  /// Serves one request against the current DAGs: fills its latency,
  /// hops and status (a lock request runs its grant cycle).
  void serve(ServiceRequest& request);

  Graph topology_;
  NodeId destination_;
  ServiceOptions options_;
  ToraRouter tora_;
  /// Starts from a copy of `tora_`'s stabilized DAG: same topology, same
  /// destination, so the same heights without repeating the reversals.
  LinkReversalMutex mutex_;
  LeaderElectionService leader_;
  /// Live / down undirected link lists for random churn (swap-pop
  /// removal, deterministic in the churn RNG stream).
  std::vector<std::pair<NodeId, NodeId>> live_links_;
  std::vector<std::pair<NodeId, NodeId>> down_links_;
  std::size_t script_cursor_ = 0;   ///< next unapplied scripted event
  std::uint64_t random_churn_applied_ = 0;  ///< churn intervals consumed
  std::mt19937_64 churn_rng_;       ///< random-churn stream (seed-derived)
  std::uint64_t churn_events_ = 0;  ///< link flips applied so far
};

}  // namespace lr
