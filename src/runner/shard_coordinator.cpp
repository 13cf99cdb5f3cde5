#include "runner/shard_coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "runner/shard_protocol.hpp"

namespace lr {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoEndpoint = static_cast<std::size_t>(-1);

/// Budget for establishing one attempt (fork or connect, then request
/// shipping), in milliseconds.
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

/// One live shard attempt, as the coordinator tracks it.
struct LiveAttempt {
  std::size_t shard = 0;
  std::size_t endpoint = kNoEndpoint;
  std::unique_ptr<ShardChannel> channel;
  std::size_t next_position = 0;  ///< workload-order position of the next record owed
  bool hello_seen = false;
  bool done_seen = false;
  FrameParser parser;
  Clock::time_point started;
  Clock::time_point deadline;  ///< inactivity watchdog expiry
  long long backoff_ms = 0;    ///< delay the retry policy imposed before dispatch
  SweepCacheStats cache;       ///< from the shard-done frame
};

/// A shard awaiting (re)dispatch.
struct PendingShard {
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

  const std::vector<ShardRange> ranges = shard_ranges(total, total_capacity());
  const std::size_t shards = ranges.size();
  diagnostics_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    diagnostics_[s].shard = s;
    diagnostics_[s].range = ranges[s];
  }

  const std::string spec_text = format_sweep_spec(spec);
  int timeout_ms = options_.timeout_ms;
  if (const char* env = std::getenv("LR_TEST_WORKER_TIMEOUT_MS")) {
    timeout_ms = std::max(1, std::atoi(env));
  }
  const int heartbeat_ms = std::max(kMinHeartbeatMs, timeout_ms / 4);
  const std::size_t max_attempts = std::max<std::size_t>(1, options_.retry.max_attempts);

  std::vector<Endpoint> endpoints;
  endpoints.reserve(transports_.size() + 1);
  for (const auto& transport : transports_) endpoints.push_back({transport});

  std::vector<SweepCacheStats> shard_cache(shards);
  std::vector<LiveAttempt> live;
  std::vector<PendingShard> pending;
  pending.reserve(shards);
  const Clock::time_point start_now = Clock::now();
  for (std::size_t s = 0; s < shards; ++s) pending.push_back({s, start_now, kNoEndpoint, 0});
  std::size_t completed = 0;
  bool exhausted = false;       // some shard ran out of attempts
  bool nowhere_to_run = false;  // every endpoint dead with work outstanding
  std::uint64_t heartbeat_sequence = 0;
  Clock::time_point next_heartbeat = Clock::now() + std::chrono::milliseconds(heartbeat_ms);

  const auto busy_on = [&](std::size_t endpoint) {
    std::size_t count = 0;
    for (const LiveAttempt& attempt : live) {
      if (attempt.endpoint == endpoint) ++count;
    }
    return count;
  };

  // Appends the attempt's failure line, charges the endpoint's liveness
  // score, and re-queues the shard behind its backoff gate — or declares
  // the budget exhausted.
  const auto record_failure = [&](const LiveAttempt& attempt, const std::string& cause) {
    ShardDiagnostics& diag = diagnostics_[attempt.shard];
    diag.failures.push_back("attempt " + std::to_string(diag.attempts) + ": " + cause);
    diag.attempt_log.push_back({diag.attempts - 1,
                                attempt.endpoint == kNoEndpoint
                                    ? std::string("unassigned")
                                    : endpoints[attempt.endpoint].transport->endpoint(),
                                cause, elapsed_ms_since(attempt.started), attempt.backoff_ms});
    if (attempt.endpoint != kNoEndpoint) {
      Endpoint& endpoint = endpoints[attempt.endpoint];
      if (++endpoint.consecutive_failures >= kEndpointFailureThreshold) {
        endpoint.dead = true;
      }
    }
    if (diag.attempts < max_attempts) {
      const auto backoff = options_.retry.delay(attempt.shard, diag.attempts);
      pending.push_back(
          {attempt.shard, Clock::now() + backoff, attempt.endpoint, backoff.count()});
    } else {
      exhausted = true;
    }
  };

  // Validates and applies one decoded frame from a live attempt; returns
  // a failure description, or empty when the frame was in contract.
  const auto apply_frame = [&](LiveAttempt& attempt, const Frame& frame) -> std::string {
    const std::size_t s = attempt.shard;
    const ShardRange& range = ranges[s];
    if (frame.type == FrameType::kHeartbeat) {
      // Liveness only — the read already pushed the watchdog deadline.
      // Direction is still validated: a coordinator beacon echoed back
      // means a confused peer, which must not pass for liveness.
      if (frame.heartbeat.from_coordinator != 0) {
        return "worker echoed a coordinator heartbeat";
      }
      return {};
    }
    if (frame.type == FrameType::kShardRequest) {
      return "worker sent a shard-request frame (coordinator-only frame)";
    }
    if (frame.type == FrameType::kShardError) {
      return "worker refused shard: " + frame.error.message;
    }
    if (frame.type == FrameType::kHello) {
      if (attempt.hello_seen) return "duplicate hello frame";
      const HelloFrame& hello = frame.hello;
      if (hello.version != kShardProtocolVersion) {
        return "protocol version mismatch (worker " + std::to_string(hello.version) +
               ", parent " + std::to_string(kShardProtocolVersion) + ")";
      }
      if (hello.shard != s || hello.begin != range.begin || hello.end != range.end) {
        return "hello frame names the wrong shard";
      }
      attempt.hello_seen = true;
      return {};
    }
    if (!attempt.hello_seen) return "frame before hello";
    if (attempt.done_seen) return "frame after shard-done";
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
    attempt.done_seen = true;
    attempt.cache = frame.done.cache;
    return {};
  };

  while (!exhausted && !nowhere_to_run && completed < shards) {
    const bool all_dead =
        std::all_of(endpoints.begin(), endpoints.end(), [](const Endpoint& e) { return e.dead; });
    if (all_dead && fallback_ != nullptr && !fallback_engaged_) {
      // Graceful degradation: every remote endpoint is gone, so the held-
      // back local transport joins the endpoint set and inherits the
      // unfinished shards.
      endpoints.push_back({fallback_});
      fallback_engaged_ = true;
    } else if (all_dead && live.empty() && !pending.empty()) {
      nowhere_to_run = true;
      break;
    }

    // Dispatch every pending shard whose backoff gate has passed onto a
    // live endpoint with a free lane, preferring an endpoint other than
    // the one that just failed it (reassignment on host death).
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < pending.size() && !exhausted;) {
      if (pending[i].not_before > now) {
        ++i;
        continue;
      }
      std::size_t chosen = kNoEndpoint;
      std::size_t fallback_choice = kNoEndpoint;
      for (std::size_t e = 0; e < endpoints.size(); ++e) {
        if (endpoints[e].dead) continue;
        if (busy_on(e) >= endpoints[e].transport->capacity()) continue;
        if (e == pending[i].avoid_endpoint) {
          fallback_choice = e;
          continue;
        }
        chosen = e;
        break;
      }
      if (chosen == kNoEndpoint) chosen = fallback_choice;
      if (chosen == kNoEndpoint) {
        ++i;  // no free lane right now; poll below frees one
        continue;
      }
      const PendingShard job = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));

      ShardDiagnostics& diag = diagnostics_[job.shard];
      ++diag.attempts;
      ShardRequestFrame request;
      request.shard = job.shard;
      request.begin = ranges[job.shard].begin;
      request.end = ranges[job.shard].end;
      request.total = total;
      request.attempt = diag.attempts - 1;
      request.threads = options_.threads;
      request.heartbeat_ms = static_cast<std::uint32_t>(heartbeat_ms);
      // The worker tolerates a few missed coordinator beacons before
      // declaring the coordinator gone and unwinding its session.
      request.liveness_timeout_ms = static_cast<std::uint32_t>(std::max(2 * timeout_ms, 2'000));
      request.spec_text = spec_text;
      request.snapshot_dir = options_.snapshot_dir;

      LiveAttempt attempt;
      attempt.shard = job.shard;
      attempt.endpoint = chosen;
      attempt.started = Clock::now();
      attempt.backoff_ms = job.backoff_ms;
      ShardStart started =
          endpoints[chosen].transport->start(request, kStartTimeoutMs);
      if (started.channel == nullptr) {
        record_failure(attempt, started.error);
        continue;  // re-scan from the same index (erase shifted the rest)
      }
      attempt.channel = std::move(started.channel);
      attempt.next_position = ranges[job.shard].begin;
      attempt.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      live.push_back(std::move(attempt));
    }
    if (exhausted || completed == shards) break;

    // Multiplex all live attempts; wake at the earliest of any watchdog
    // deadline, backoff gate, or the next coordinator beacon.
    std::vector<struct pollfd> fds;
    fds.reserve(live.size());
    const Clock::time_point after_dispatch = Clock::now();
    Clock::time_point earliest = next_heartbeat;
    for (const LiveAttempt& attempt : live) {
      fds.push_back({attempt.channel->poll_fd(), POLLIN, 0});
      earliest = std::min(earliest, attempt.deadline);
    }
    for (const PendingShard& job : pending) {
      // A past-due job still queued is waiting for a lane, not the
      // clock; lanes free via fd events or deadlines, so a passed gate
      // must not clamp this wait to a busy spin.
      if (job.not_before > after_dispatch) earliest = std::min(earliest, job.not_before);
    }
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(earliest - Clock::now()).count();
    ::poll(fds.data(), fds.size(), static_cast<int>(std::clamp<long long>(wait_ms, 0, 1000)));
    const Clock::time_point after_poll = Clock::now();

    // Coordinator beacons: prove to every live worker that this end is
    // still alive.  A beacon that cannot be written is a dead channel.
    const bool send_beacons = after_poll >= next_heartbeat;
    if (send_beacons) next_heartbeat = after_poll + std::chrono::milliseconds(heartbeat_ms);

    for (std::size_t i = 0; i < live.size();) {
      LiveAttempt& attempt = live[i];
      std::string failure;
      bool shard_complete = false;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Drain the channel and the parser until would-block, EOF, or an
        // error.
        while (failure.empty() && !shard_complete) {
          std::uint8_t buffer[65536];
          const ChannelRead read = attempt.channel->read_some(buffer, sizeof(buffer));
          if (read.kind == ChannelRead::Kind::kData) {
            attempt.deadline = after_poll + std::chrono::milliseconds(timeout_ms);
            attempt.parser.feed(buffer, read.bytes);
            try {
              while (auto frame = attempt.parser.next()) {
                failure = apply_frame(attempt, *frame);
                if (!failure.empty()) break;
                if (attempt.done_seen) {
                  shard_complete = true;
                  break;
                }
              }
            } catch (const ShardProtocolError& error) {
              failure = error.what();
            }
            continue;
          }
          if (read.kind == ChannelRead::Kind::kEof) {
            failure = attempt.parser.mid_frame()
                          ? "stream truncated mid-frame"
                          : "worker exited before completing its shard";
            break;
          }
          if (read.kind == ChannelRead::Kind::kError) {
            failure = read.error;
            break;
          }
          break;  // would block; nothing buffered
        }
      }
      if (shard_complete) {
        attempt.channel->complete();
        diagnostics_[attempt.shard].completed = true;
        diagnostics_[attempt.shard].attempt_log.push_back(
            {diagnostics_[attempt.shard].attempts - 1,
             endpoints[attempt.endpoint].transport->endpoint(), "ok",
             elapsed_ms_since(attempt.started), attempt.backoff_ms});
        shard_cache[attempt.shard] = attempt.cache;
        Endpoint& endpoint = endpoints[attempt.endpoint];
        endpoint.consecutive_failures = 0;
        endpoint.dead = false;  // a completing endpoint is alive, whatever we presumed
        ++completed;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (failure.empty() && after_poll >= attempt.deadline) {
        failure = "stalled: no frame within " + std::to_string(timeout_ms) + " ms";
      }
      if (failure.empty() && send_beacons) {
        const std::string beacon_error = attempt.channel->send_heartbeat(heartbeat_sequence++);
        if (!beacon_error.empty()) failure = beacon_error;
      }
      if (!failure.empty()) {
        const std::string status = attempt.channel->abort();
        // Invalidate the attempt's partial merge: the retry re-emits the
        // shard from its beginning (records are pure functions of their
        // spec, so completed slots are simply overwritten identically).
        record_failure(attempt, failure + " (" + status + ")");
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  }

  if (exhausted || nowhere_to_run) {
    for (LiveAttempt& attempt : live) attempt.channel->abort();
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

  for (const SweepCacheStats& cache : shard_cache) {
    report.cache.peak_entries += cache.peak_entries;
    report.cache.hits += cache.hits;
    report.cache.misses += cache.misses;
    report.cache.snapshot_loads += cache.snapshot_loads;
    report.cache.snapshot_saves += cache.snapshot_saves;
  }
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
