#include "service/service_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "runner/scenario.hpp"

namespace lr {

namespace {

// Domain tags keep the harness's derived RNG streams (per-client draws,
// churn flips) independent of each other and of the sweep layer's
// instance/scheduler/network streams (runner/scenario.cpp).
constexpr std::uint64_t kClientDomain = 0x5e71c3c11e47ULL;
constexpr std::uint64_t kChurnDomain = 0xc4321b11459ULL;

std::string fmt_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

std::string u64(std::uint64_t value) { return std::to_string(value); }

}  // namespace

const char* request_kind_token(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRoute:
      return "route";
    case RequestKind::kLock:
      return "lock";
    case RequestKind::kLeader:
      return "leader";
  }
  return "?";
}

const char* request_status_token(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kPartitioned:
      return "partitioned";
    case RequestStatus::kNoLeader:
      return "no-leader";
  }
  return "?";
}

std::uint64_t ServiceReport::total_issued() const noexcept {
  std::uint64_t total = 0;
  for (const ServiceKindStats& kind : kinds) total += kind.issued;
  return total;
}

std::uint64_t ServiceReport::total_completed() const noexcept {
  std::uint64_t total = 0;
  for (const ServiceKindStats& kind : kinds) total += kind.completed;
  return total;
}

std::uint64_t ServiceReport::total_failed() const noexcept {
  std::uint64_t total = 0;
  for (const ServiceKindStats& kind : kinds) total += kind.failed;
  return total;
}

double ServiceReport::requests_per_sec() const noexcept {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(total_issued()) / wall_seconds;
}

std::uint64_t ServiceReport::fingerprint() const noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  for (const ServiceKindStats& kind : kinds) {
    mix(kind.histogram.fingerprint());
    mix(kind.issued);
    mix(kind.completed);
    mix(kind.failed);
    mix(kind.hops);
  }
  mix(churn_events);
  mix(reversal_steps);
  return hash;
}

Table ServiceReport::latency_table() const {
  Table table;
  table.columns = {"kind", "issued", "completed", "failed", "p50",  "p99",
                   "p999", "mean",   "max",       "hops",   "fingerprint"};
  const auto add = [&table](const char* label, const ServiceKindStats& stats) {
    table.add_row({label, u64(stats.issued), u64(stats.completed), u64(stats.failed),
                   u64(stats.histogram.quantile(0.50)), u64(stats.histogram.quantile(0.99)),
                   u64(stats.histogram.quantile(0.999)), fmt_double(stats.histogram.mean()),
                   u64(stats.histogram.max()), u64(stats.hops),
                   u64(stats.histogram.fingerprint())});
  };
  ServiceKindStats all;
  for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
    add(request_kind_token(static_cast<RequestKind>(kind)), kinds[kind]);
    all.histogram.merge(kinds[kind].histogram);
    all.issued += kinds[kind].issued;
    all.completed += kinds[kind].completed;
    all.failed += kinds[kind].failed;
    all.hops += kinds[kind].hops;
  }
  add("all", all);
  return table;
}

/// One drawn-but-unprocessed request of the current tick's batch.
struct ServiceHarness::PendingRequest {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kRoute;
  NodeId source = 0;
  std::uint64_t think = 1;
  std::uint32_t client = 0;
  // Filled by the processing phase (lock serially, reads in parallel).
  std::uint64_t latency = 1;
  std::uint64_t hops = 0;
  RequestStatus status = RequestStatus::kOk;
};

/// Private measurement block of one parallel read-phase worker; merged
/// into the report with the histogram's exact merge.
struct ServiceHarness::WorkerAccumulator {
  ServiceKindStats kinds[kRequestKinds];
};

ServiceHarness::ServiceHarness(const Graph& topology, NodeId destination, ServiceOptions options)
    : topology_(topology),
      destination_(destination),
      options_(options),
      tora_(topology, destination),
      mutex_(topology, destination),
      leader_(topology),
      live_links_(topology.edges()),
      churn_rng_(splitmix64(options.seed ^ kChurnDomain)) {
  if (topology.num_nodes() == 0) {
    throw std::invalid_argument("ServiceHarness: topology has no nodes");
  }
  if (options_.clients == 0) {
    throw std::invalid_argument("ServiceHarness: clients must be >= 1");
  }
}

void ServiceHarness::apply_link_event(const LinkEvent& event) {
  if (event.up) {
    tora_.link_up(event.u, event.v);
    mutex_.link_up(event.u, event.v);
    leader_.link_up(event.u, event.v);
  } else {
    tora_.link_down(event.u, event.v);
    mutex_.link_down(event.u, event.v);
    leader_.link_down(event.u, event.v);
  }
  ++churn_events_;
}

void ServiceHarness::apply_churn_until(SimTime now) {
  if (options_.churn_script != nullptr) {
    const auto& script = *options_.churn_script;
    while (script_cursor_ < script.size() && script[script_cursor_].time <= now) {
      apply_link_event(script[script_cursor_].event);
      ++script_cursor_;
    }
    return;
  }
  if (options_.churn_interval == 0) return;
  while ((random_churn_applied_ + 1) * options_.churn_interval <= now) {
    ++random_churn_applied_;
    const bool can_heal = !down_links_.empty();
    const bool can_break = !live_links_.empty();
    if (!can_heal && !can_break) continue;
    const bool heal = can_heal && (!can_break || (churn_rng_() & 1) != 0);
    auto& from = heal ? down_links_ : live_links_;
    auto& to = heal ? live_links_ : down_links_;
    const std::size_t index = static_cast<std::size_t>(churn_rng_() % from.size());
    const auto link = from[index];
    from[index] = from.back();  // swap-pop: O(1), order is RNG-determined anyway
    from.pop_back();
    to.push_back(link);
    apply_link_event({link.first, link.second, heal});
  }
}

ServiceReport ServiceHarness::run() {
  ServiceReport report;
  const std::size_t nodes = topology_.num_nodes();

  // Resolve the parallel read phase's worker pool: a borrowed pool wins,
  // `workers != 1` without one spawns a short-lived local pool, and
  // workers == 1 stays serial (no pool at all).  Reports are identical
  // in every case — sharding only moves pure reads between threads.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = options_.pool;
  if (pool == nullptr && options_.workers != 1) pool = &local_pool.emplace(options_.workers);
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  std::vector<WorkerAccumulator> accumulators(workers);

  // Per-client RNG streams: a client's request sequence depends only on
  // (seed, client index), never on interleaving, which is half of the
  // determinism story (the other half is the serial completion order).
  std::vector<std::mt19937_64> client_rng;
  client_rng.reserve(options_.clients);
  for (std::size_t client = 0; client < options_.clients; ++client) {
    client_rng.emplace_back(
        splitmix64(splitmix64(options_.seed ^ kClientDomain) ^ (client + 1)));
  }

  TimeIndex index(options_.scheduler);
  std::uint64_t seq = 0;
  for (std::size_t client = 0; client < options_.clients; ++client) {
    index.push(1, seq++, static_cast<std::uint32_t>(client));
  }

  std::uint64_t next_id = 0;
  std::vector<PendingRequest> pending;
  std::vector<std::size_t> reads;  // pending indices of the parallel phase

  const auto start = std::chrono::steady_clock::now();
  TimeIndexEntry entry;
  SimTime now = 0;
  while (index.peek_min_time(now) && now <= options_.duration) {
    // Drain the whole tick: entries pop in (time, seq) order, so the
    // batch order is the issue order regardless of backend.
    pending.clear();
    SimTime peek = 0;
    while (index.peek_min_time(peek) && peek == now) {
      index.pop_min(entry);
      PendingRequest request;
      request.client = entry.slot;
      pending.push_back(request);
    }

    // Phase 1 — churn due at or before this tick, applied serially to
    // all three services.
    apply_churn_until(now);

    // Phase 2 — draw this tick's requests serially, one per woken
    // client, in batch (= seq) order.
    for (PendingRequest& request : pending) {
      std::mt19937_64& rng = client_rng[request.client];
      switch (options_.workload) {
        case ServiceWorkload::kRoute:
          request.kind = RequestKind::kRoute;
          break;
        case ServiceWorkload::kLock:
          request.kind = RequestKind::kLock;
          break;
        case ServiceWorkload::kLeader:
          request.kind = RequestKind::kLeader;
          break;
        case ServiceWorkload::kMixed: {
          const std::uint64_t draw = rng() % 4;
          request.kind = draw < 2 ? RequestKind::kRoute
                                  : (draw == 2 ? RequestKind::kLock : RequestKind::kLeader);
          break;
        }
      }
      request.source = static_cast<NodeId>(rng() % nodes);
      request.think = 1 + rng() % 8;
      request.id = next_id++;
    }

    // Phase 3 — lock cycles, serially in issue order (they mutate the
    // mutex DAG: request routes to the holder, release re-targets it).
    reads.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      PendingRequest& request = pending[i];
      if (request.kind != RequestKind::kLock) {
        reads.push_back(i);
        continue;
      }
      const NodeId source = request.source;
      if (source == mutex_.holder()) {
        request.latency = 1;  // already holds the token
      } else if (!mutex_.dag().route(source)) {
        request.status = RequestStatus::kPartitioned;
        request.latency = 1;
      } else {
        const std::uint64_t before = mutex_.stats().total_reversals;
        request.hops = mutex_.request(source);
        mutex_.release();  // grants to `source`: the queue held only it
        const std::uint64_t reversals = mutex_.stats().total_reversals - before;
        request.latency = 1 + request.hops + reversals;
      }
      ServiceKindStats& stats = accumulators[0].kinds[static_cast<std::size_t>(request.kind)];
      ++stats.issued;
      if (request.status == RequestStatus::kOk) {
        ++stats.completed;
        stats.hops += request.hops;
        stats.histogram.record(request.latency);
      } else {
        ++stats.failed;
      }
    }

    // Phase 4 — route queries and leader lookups: pure reads over the
    // tora / leader DAGs (const and cache-free), sharded contiguously
    // across the pool.
    const auto process_read = [this](PendingRequest& request) {
      const NodeId source = request.source;
      if (request.kind == RequestKind::kRoute) {
        if (source == tora_.destination()) {
          request.latency = 1;
          return;
        }
        const auto path = tora_.dag().route(source);
        if (!path) {
          request.status = RequestStatus::kPartitioned;
          request.latency = 1;
          return;
        }
        request.hops = path->size() - 1;
        request.latency = 1 + request.hops;
        return;
      }
      const auto elected = leader_.leader();
      if (!elected) {
        request.status = RequestStatus::kNoLeader;
        request.latency = 1;
        return;
      }
      if (source == *elected) {
        request.latency = 1;
        return;
      }
      const auto path = leader_.dag().route(source);
      if (!path) {
        request.status = RequestStatus::kPartitioned;
        request.latency = 1;
        return;
      }
      request.hops = path->size() - 1;
      request.latency = 1 + request.hops;
    };
    const auto account = [&pending, &reads, &accumulators](std::size_t worker, std::size_t begin,
                                                           std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        PendingRequest& request = pending[reads[r]];
        ServiceKindStats& stats =
            accumulators[worker].kinds[static_cast<std::size_t>(request.kind)];
        ++stats.issued;
        if (request.status == RequestStatus::kOk) {
          ++stats.completed;
          stats.hops += request.hops;
          stats.histogram.record(request.latency);
        } else {
          ++stats.failed;
        }
      }
    };
    if (pool != nullptr && reads.size() > 1) {
      pool->run([&pending, &reads, &process_read, &account, workers](std::size_t worker) {
        const std::size_t begin = reads.size() * worker / workers;
        const std::size_t end = reads.size() * (worker + 1) / workers;
        for (std::size_t r = begin; r < end; ++r) process_read(pending[reads[r]]);
        account(worker, begin, end);
      });
    } else {
      for (const std::size_t i : reads) process_read(pending[i]);
      account(0, 0, reads.size());
    }

    // Phase 5 — completion, serially in issue order: trace append and
    // the next closed-loop wake (latency then think time).
    for (const PendingRequest& request : pending) {
      if (options_.keep_trace) {
        report.trace.push_back({request.id, request.kind, request.source, now, request.latency,
                                request.hops, request.status});
      }
      const SimTime next = now + request.latency + request.think;
      if (next <= options_.duration) index.push(next, seq++, request.client);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(stop - start).count();

  // Exact, order-independent merge of the per-worker measurement blocks
  // (ascending worker order by convention; any order yields identical
  // bytes — tests/latency_histogram_test.cpp proves it).
  for (const WorkerAccumulator& accumulator : accumulators) {
    for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
      report.kinds[kind].histogram.merge(accumulator.kinds[kind].histogram);
      report.kinds[kind].issued += accumulator.kinds[kind].issued;
      report.kinds[kind].completed += accumulator.kinds[kind].completed;
      report.kinds[kind].failed += accumulator.kinds[kind].failed;
      report.kinds[kind].hops += accumulator.kinds[kind].hops;
    }
  }
  report.churn_events = churn_events_;
  report.reversal_steps = tora_.dag().total_reversals() + mutex_.dag().total_reversals() +
                          leader_.dag().total_reversals();
  report.snapshot_patches = tora_.dag().snapshot_patches() + mutex_.dag().snapshot_patches() +
                            leader_.dag().snapshot_patches();
  report.snapshot_rebuilds = tora_.dag().snapshot_rebuilds() + mutex_.dag().snapshot_rebuilds() +
                             leader_.dag().snapshot_rebuilds();
  return report;
}

}  // namespace lr
