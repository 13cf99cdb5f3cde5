#include "runner/shard_coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "runner/shard_protocol.hpp"

namespace lr {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoEndpoint = static_cast<std::size_t>(-1);

/// Budget for opening one session (fork or connect, then shipping the
/// request and the first claim), in milliseconds.
constexpr int kStartTimeoutMs = 5'000;

/// Coordinator -> worker beacon interval: the inactivity watchdog / 4,
/// floored at this many milliseconds.
constexpr int kMinHeartbeatMs = 10;

/// Consecutive failures after which an endpoint is declared dead.
constexpr std::size_t kEndpointFailureThreshold = 2;

/// One endpoint the coordinator can dispatch to, with its liveness score.
struct Endpoint {
  std::shared_ptr<ShardTransport> transport;
  std::size_t consecutive_failures = 0;
  bool dead = false;
};

/// One attempt of a claim, as the session serving it tracks it.
struct Attempt {
  std::size_t shard = 0;          ///< claim index
  std::size_t next_position = 0;  ///< workload-order position of the next record owed
  bool hello_seen = false;
  Clock::time_point started;
  long long backoff_ms = 0;  ///< delay the retry policy imposed before dispatch
};

/// One open worker session: serving a claim, or idle between claims.
struct Session {
  std::size_t index = 0;  ///< opening order: the shard log's `session`
  std::size_t endpoint = kNoEndpoint;
  std::unique_ptr<ShardChannel> channel;
  FrameParser parser;
  Clock::time_point deadline;      ///< inactivity watchdog expiry
  std::optional<Attempt> attempt;  ///< the claim being served; empty = idle
};

/// A claim awaiting (re)dispatch.
struct PendingClaim {
  std::size_t shard = 0;
  Clock::time_point not_before;        ///< retry-policy gate
  std::size_t avoid_endpoint = kNoEndpoint;  ///< endpoint of the last failure
  long long backoff_ms = 0;            ///< the gate's delay, for the attempt log
};

long long elapsed_ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
}

}  // namespace

ShardCoordinator::ShardCoordinator(CoordinatorOptions options,
                                   std::vector<std::shared_ptr<ShardTransport>> transports,
                                   std::shared_ptr<ShardTransport> fallback)
    : options_(std::move(options)),
      transports_(std::move(transports)),
      fallback_(std::move(fallback)) {
  if (transports_.empty()) {
    throw std::invalid_argument("ShardCoordinator: at least one transport is required");
  }
  for (const auto& transport : transports_) {
    if (transport == nullptr) {
      throw std::invalid_argument("ShardCoordinator: null transport");
    }
  }
}

std::size_t ShardCoordinator::total_capacity() const noexcept {
  std::size_t capacity = 0;
  for (const auto& transport : transports_) capacity += transport->capacity();
  return capacity;
}

SweepReport ShardCoordinator::run(const SweepSpec& spec) {
  const std::vector<RunSpec> runs = spec.expand();
  const std::size_t total = runs.size();
  const std::vector<std::size_t> order = workload_order(runs);
  diagnostics_.clear();
  fallback_engaged_ = false;
  SweepReport report;
  report.records.resize(total);
  if (total == 0) return report;

  const std::vector<ShardRange> claims = plan_claims(runs, total_capacity());
  diagnostics_.resize(claims.size());
  for (std::size_t s = 0; s < claims.size(); ++s) {
    diagnostics_[s].shard = s;
    diagnostics_[s].range = claims[s];
  }

  int timeout_ms = options_.timeout_ms;
  if (const char* env = std::getenv("LR_TEST_WORKER_TIMEOUT_MS")) {
    timeout_ms = std::max(1, std::atoi(env));
  }
  const int heartbeat_ms = std::max(kMinHeartbeatMs, timeout_ms / 4);
  const std::size_t max_attempts = std::max<std::size_t>(1, options_.retry.max_attempts);

  // Every session opens with the same request: the spec travels, and is
  // expanded, once per session.
  ShardRequestFrame request;
  request.total = total;
  request.threads = options_.threads;
  request.heartbeat_ms = static_cast<std::uint32_t>(heartbeat_ms);
  // The worker tolerates a few missed coordinator beacons before
  // declaring the coordinator gone and unwinding its session.
  request.liveness_timeout_ms = static_cast<std::uint32_t>(std::max(2 * timeout_ms, 2'000));
  request.spec_text = format_sweep_spec(spec);
  request.snapshot_dir = options_.snapshot_dir;

  std::vector<Endpoint> endpoints;
  endpoints.reserve(transports_.size() + 1);
  for (const auto& transport : transports_) endpoints.push_back({transport});

  std::vector<SweepCacheStats> claim_cache(claims.size());
  std::vector<std::size_t> session_peak;  // most workloads each session held at once
  // Ended sessions' channels, whose destructors reap the workers when
  // run() returns: the workers exit in parallel, off the loop's path.
  std::vector<std::unique_ptr<ShardChannel>> ended;
  std::vector<Session> sessions;
  std::vector<PendingClaim> pending;
  pending.reserve(claims.size());
  const Clock::time_point start_now = Clock::now();
  for (std::size_t s = 0; s < claims.size(); ++s) pending.push_back({s, start_now, kNoEndpoint, 0});
  std::size_t completed = 0;
  bool exhausted = false;       // some claim ran out of attempts
  bool nowhere_to_run = false;  // every endpoint dead with work outstanding
  std::uint64_t heartbeat_sequence = 0;
  Clock::time_point next_heartbeat = Clock::now() + std::chrono::milliseconds(heartbeat_ms);

  const auto sessions_on = [&](std::size_t endpoint) {
    return static_cast<std::size_t>(std::count_if(
        sessions.begin(), sessions.end(),
        [endpoint](const Session& session) { return session.endpoint == endpoint; }));
  };

  // Appends the attempt's failure line, charges the endpoint's liveness
  // score, and re-queues the claim behind its backoff gate — or declares
  // the budget exhausted.
  const auto record_failure = [&](const Attempt& attempt, std::size_t endpoint,
                                  std::size_t session, const std::string& cause) {
    ShardDiagnostics& diag = diagnostics_[attempt.shard];
    diag.failures.push_back("attempt " + std::to_string(diag.attempts) + ": " + cause);
    diag.attempt_log.push_back({diag.attempts - 1, endpoints[endpoint].transport->endpoint(),
                                cause, elapsed_ms_since(attempt.started), attempt.backoff_ms,
                                session});
    if (++endpoints[endpoint].consecutive_failures >= kEndpointFailureThreshold) {
      endpoints[endpoint].dead = true;
    }
    if (diag.attempts < max_attempts) {
      const auto backoff = options_.retry.delay(attempt.shard, diag.attempts);
      pending.push_back({attempt.shard, Clock::now() + backoff, endpoint, backoff.count()});
    } else {
      exhausted = true;
    }
  };

  // Validates and applies one decoded frame from a session; returns a
  // failure description, or empty when the frame was in contract.  A
  // shard-done frame completes the claim and leaves the session idle.
  const auto apply_frame = [&](Session& session, const Frame& frame) -> std::string {
    if (frame.type == FrameType::kHeartbeat) {
      // Liveness only — the read already pushed the watchdog deadline.
      // Direction is still validated: a coordinator beacon echoed back
      // means a confused peer, which must not pass for liveness.
      if (frame.heartbeat.from_coordinator != 0) {
        return "worker echoed a coordinator heartbeat";
      }
      return {};
    }
    if (frame.type == FrameType::kShardRequest || frame.type == FrameType::kClaim) {
      return "worker sent a coordinator-only frame";
    }
    if (frame.type == FrameType::kShardError) {
      return "worker refused: " + frame.error.message;
    }
    if (!session.attempt) return "frame between claims";
    Attempt& attempt = *session.attempt;
    const ShardRange& range = claims[attempt.shard];
    if (frame.type == FrameType::kHello) {
      if (attempt.hello_seen) return "duplicate hello frame";
      const HelloFrame& hello = frame.hello;
      if (hello.version != kShardProtocolVersion) {
        return "protocol version mismatch (worker " + std::to_string(hello.version) +
               ", parent " + std::to_string(kShardProtocolVersion) + ")";
      }
      if (hello.shard != attempt.shard || hello.begin != range.begin || hello.end != range.end) {
        return "hello frame names the wrong shard";
      }
      attempt.hello_seen = true;
      return {};
    }
    if (!attempt.hello_seen) return "frame before hello";
    if (frame.type == FrameType::kRecord) {
      const RecordFrame& record = frame.record;
      if (attempt.next_position == range.end ||
          record.global_index != order[attempt.next_position]) {
        return "out-of-order record (got run #" + std::to_string(record.global_index) +
               " at shard position " + std::to_string(attempt.next_position) + ")";
      }
      const RunSpec& spec = runs[record.global_index];
      if (record.spec_digest != spec_digest(spec)) {
        return "record #" + std::to_string(record.global_index) +
               " carries a spec that differs from the coordinator's expansion";
      }
      report.records[record.global_index] = record.record;
      report.records[record.global_index].spec = spec;
      ++attempt.next_position;
      return {};
    }
    // Shard done: every run must be accounted for, exactly once.
    if (attempt.next_position != range.end || frame.done.records_emitted != range.size()) {
      return "shard-done before all records arrived (" +
             std::to_string(attempt.next_position - range.begin) + "/" +
             std::to_string(range.size()) + ")";
    }
    ShardDiagnostics& diag = diagnostics_[attempt.shard];
    diag.completed = true;
    diag.attempt_log.push_back({diag.attempts - 1,
                                endpoints[session.endpoint].transport->endpoint(), "ok",
                                elapsed_ms_since(attempt.started), attempt.backoff_ms,
                                session.index});
    claim_cache[attempt.shard] = frame.done.cache;
    session_peak[session.index] =
        std::max(session_peak[session.index], frame.done.cache.peak_entries);
    Endpoint& endpoint = endpoints[session.endpoint];
    endpoint.consecutive_failures = 0;
    endpoint.dead = false;  // a completing endpoint is alive, whatever we presumed
    ++completed;
    session.attempt.reset();
    return {};
  };

  while (!exhausted && !nowhere_to_run && completed < claims.size()) {
    const bool all_dead =
        std::all_of(endpoints.begin(), endpoints.end(), [](const Endpoint& e) { return e.dead; });
    const bool any_busy = std::any_of(sessions.begin(), sessions.end(),
                                      [](const Session& session) { return session.attempt.has_value(); });
    if (all_dead && fallback_ != nullptr && !fallback_engaged_) {
      // Graceful degradation: every remote endpoint is gone, so the held-
      // back local transport joins the endpoint set and inherits the
      // unfinished claims.
      endpoints.push_back({fallback_});
      fallback_engaged_ = true;
    } else if (all_dead && !any_busy && !pending.empty()) {
      nowhere_to_run = true;
      break;
    }

    // Dispatch every pending claim whose backoff gate has passed: a free
    // lane opens a session for it, else an idle session takes it, either
    // way preferring an endpoint other than the one that just failed it
    // (reassignment on host death).
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < pending.size() && !exhausted;) {
      const PendingClaim job = pending[i];
      if (job.not_before > now) {
        ++i;
        continue;
      }
      std::size_t lane = kNoEndpoint;
      std::size_t avoided_lane = kNoEndpoint;
      for (std::size_t e = 0; e < endpoints.size() && lane == kNoEndpoint; ++e) {
        if (endpoints[e].dead || sessions_on(e) >= endpoints[e].transport->capacity()) continue;
        if (e == job.avoid_endpoint) {
          avoided_lane = e;
        } else {
          lane = e;
        }
      }
      if (lane == kNoEndpoint) lane = avoided_lane;
      Session* idle = nullptr;
      if (lane == kNoEndpoint) {
        for (Session& session : sessions) {
          if (session.attempt || endpoints[session.endpoint].dead) continue;
          if (idle == nullptr ||
              (idle->endpoint == job.avoid_endpoint && session.endpoint != job.avoid_endpoint)) {
            idle = &session;
          }
        }
        if (idle == nullptr) {
          ++i;  // nowhere free right now; poll below frees a session
          continue;
        }
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));

      ShardDiagnostics& diag = diagnostics_[job.shard];
      ++diag.attempts;
      ClaimFrame claim;
      claim.shard = job.shard;
      claim.begin = claims[job.shard].begin;
      claim.end = claims[job.shard].end;
      claim.attempt = diag.attempts - 1;
      Attempt attempt;
      attempt.shard = job.shard;
      attempt.next_position = claims[job.shard].begin;
      attempt.started = Clock::now();
      attempt.backoff_ms = job.backoff_ms;
      if (idle != nullptr) {
        idle->attempt = attempt;
        const std::string error = idle->channel->send(encode_frame(claim));
        if (!error.empty()) {
          record_failure(attempt, idle->endpoint, idle->index,
                         error + " (" + idle->channel->abort() + ")");
          sessions.erase(sessions.begin() + (idle - sessions.data()));
        }
        continue;  // re-scan from the same index (erase shifted the rest)
      }
      const std::size_t index = session_peak.size();
      session_peak.push_back(0);
      ShardStart started = endpoints[lane].transport->start(request, claim, kStartTimeoutMs);
      if (started.channel == nullptr) {
        record_failure(attempt, lane, index, started.error);
        continue;
      }
      Session session;
      session.index = index;
      session.endpoint = lane;
      session.channel = std::move(started.channel);
      session.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      session.attempt = attempt;
      sessions.push_back(std::move(session));
    }
    if (exhausted || completed == claims.size()) break;

    // An idle session ends once nothing is left to claim, and on a dead
    // endpoint; it waits while a retry is held back by its backoff gate.
    for (std::size_t i = 0; i < sessions.size();) {
      if (!sessions[i].attempt && (pending.empty() || endpoints[sessions[i].endpoint].dead)) {
        sessions[i].channel->complete();
        ended.push_back(std::move(sessions[i].channel));
        sessions.erase(sessions.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }

    // Multiplex all sessions; wake at the earliest of any watchdog
    // deadline, backoff gate, or the next coordinator beacon.
    std::vector<struct pollfd> fds;
    fds.reserve(sessions.size());
    const Clock::time_point after_dispatch = Clock::now();
    Clock::time_point earliest = next_heartbeat;
    for (const Session& session : sessions) {
      fds.push_back({session.channel->poll_fd(), POLLIN, 0});
      earliest = std::min(earliest, session.deadline);
    }
    for (const PendingClaim& job : pending) {
      // A past-due job still queued is waiting for a session, not the
      // clock; sessions free via fd events or deadlines, so a passed gate
      // must not clamp this wait to a busy spin.
      if (job.not_before > after_dispatch) earliest = std::min(earliest, job.not_before);
    }
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(earliest - Clock::now()).count();
    ::poll(fds.data(), fds.size(), static_cast<int>(std::clamp<long long>(wait_ms, 0, 1000)));
    const Clock::time_point after_poll = Clock::now();

    // Coordinator beacons: prove to every session that this end is still
    // alive.  A beacon that cannot be written is a dead channel.
    const bool send_beacons = after_poll >= next_heartbeat;
    if (send_beacons) next_heartbeat = after_poll + std::chrono::milliseconds(heartbeat_ms);

    for (std::size_t i = 0; i < sessions.size();) {
      Session& session = sessions[i];
      std::string failure;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Drain the channel and the parser until would-block, EOF, or an
        // error.
        while (failure.empty()) {
          std::uint8_t buffer[65536];
          const ChannelRead read = session.channel->read_some(buffer, sizeof(buffer));
          if (read.kind == ChannelRead::Kind::kData) {
            session.deadline = after_poll + std::chrono::milliseconds(timeout_ms);
            session.parser.feed(buffer, read.bytes);
            try {
              while (auto frame = session.parser.next()) {
                failure = apply_frame(session, *frame);
                if (!failure.empty()) break;
              }
            } catch (const ShardProtocolError& error) {
              failure = error.what();
            }
            continue;
          }
          if (read.kind == ChannelRead::Kind::kEof) {
            failure = session.parser.mid_frame() ? "stream truncated mid-frame"
                      : session.attempt          ? "worker exited before completing its shard"
                                                 : "worker ended the session between claims";
            break;
          }
          if (read.kind == ChannelRead::Kind::kError) failure = read.error;
          break;  // an error, or would block with nothing buffered
        }
      }
      if (failure.empty() && after_poll >= session.deadline) {
        failure = "stalled: no frame within " + std::to_string(timeout_ms) + " ms";
      }
      if (failure.empty() && send_beacons) {
        failure = session.channel->send(encode_frame(HeartbeatFrame{1, heartbeat_sequence++}));
      }
      if (!failure.empty()) {
        // The claim being served is retried from its beginning (records
        // are pure functions of their spec, so slots it already filled are
        // simply overwritten identically); an idle session owes nothing.
        const std::string status = session.channel->abort();
        if (session.attempt) {
          record_failure(*session.attempt, session.endpoint, session.index,
                         failure + " (" + status + ")");
        }
        sessions.erase(sessions.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  }

  if (exhausted || nowhere_to_run) {
    for (Session& session : sessions) session.channel->abort();
    std::string message =
        nowhere_to_run
            ? options_.label +
                  " failed: every endpoint is dead with shards outstanding (no fallback left)"
            : options_.label + " failed: retry budget exhausted (" +
                  std::to_string(max_attempts) + " attempt(s) per shard)";
    for (const ShardDiagnostics& diag : diagnostics_) {
      if (diag.failures.empty()) continue;
      message += "\n  shard " + std::to_string(diag.shard) + " (positions [" +
                 std::to_string(diag.range.begin) + ", " + std::to_string(diag.range.end) +
                 "), " + (diag.completed ? "completed" : "INCOMPLETE") + "):";
      for (const std::string& failure : diag.failures) message += "\n    " + failure;
    }
    throw std::runtime_error(message);
  }
  for (Session& session : sessions) session.channel->complete();

  for (const SweepCacheStats& cache : claim_cache) {
    report.cache.hits += cache.hits;
    report.cache.misses += cache.misses;
    report.cache.snapshot_loads += cache.snapshot_loads;
    report.cache.snapshot_saves += cache.snapshot_saves;
  }
  for (const std::size_t peak : session_peak) report.cache.peak_entries += peak;
  return report;
}

ShardCoordinator make_shard_coordinator(const RunnerOptions& options,
                                        const std::vector<HostSpec>& hosts) {
  if (hosts.empty() && options.process_workers == 0) {
    throw std::invalid_argument(
        "make_shard_coordinator: need hosts or process_workers >= 1 (0 means in-process; use "
        "ScenarioRunner)");
  }
  TransportFault fault;
  if (const char* env = std::getenv("LR_TEST_TRANSPORT_FAULT")) {
    if (*env != '\0') fault = parse_transport_fault(env);
  }
  std::vector<std::shared_ptr<ShardTransport>> transports;
  for (const HostSpec& host : hosts) {
    transports.push_back(std::make_shared<TcpShardTransport>(host.host, host.port, host.workers));
  }
  // Local worker processes are the primary transport without hosts, and
  // the fallback with them.
  std::shared_ptr<ShardTransport> fallback;
  if (options.process_workers > 0) {
    auto processes = std::make_shared<ProcessShardTransport>(options.process_workers);
    if (hosts.empty()) {
      transports.push_back(std::move(processes));
    } else {
      fallback = std::move(processes);
    }
  }
  if (fault.kind != TransportFault::Kind::kNone) {
    for (auto& transport : transports) {
      transport = std::make_shared<FaultyTransport>(std::move(transport), fault);
    }
  }
  CoordinatorOptions coordinator_options;
  coordinator_options.retry.max_attempts = 1 + options.worker_retries;
  coordinator_options.timeout_ms = options.worker_timeout_ms;
  coordinator_options.label = hosts.empty() ? "multi-process sweep" : "multi-host sweep";
  coordinator_options.threads = options.threads;
  if (hosts.empty()) coordinator_options.snapshot_dir = options.snapshot_dir;
  return ShardCoordinator(std::move(coordinator_options), std::move(transports),
                          std::move(fallback));
}

}  // namespace lr
