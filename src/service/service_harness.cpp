#include "service/service_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
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

ServiceHarness::ServiceHarness(const Graph& topology, NodeId destination, ServiceOptions options)
    : topology_(topology),
      destination_(destination),
      options_(options),
      tora_(topology, destination),
      mutex_(tora_.dag()),  // the router's stabilized DAG: same topology and holder
      leader_(topology),
      live_links_(topology.edges().begin(), topology.edges().end()),
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

void ServiceHarness::serve(ServiceRequest& request) {
  const NodeId source = request.source;
  if (request.kind == RequestKind::kLock) {
    // Lock cycle: the request routes to the holder and the release
    // re-targets the mutex DAG at `source` (the queue held only it).
    if (source == mutex_.holder()) return;  // already holds the token
    if (!mutex_.dag().route(source)) {
      request.status = RequestStatus::kPartitioned;
      return;
    }
    const std::uint64_t before = mutex_.stats().total_reversals;
    request.hops = mutex_.request(source);
    mutex_.release();
    request.latency = 1 + request.hops + (mutex_.stats().total_reversals - before);
    return;
  }
  // Route query or leader lookup: a read of the tora / leader DAG.
  NodeId target = tora_.destination();
  const DynamicHeightsDag* dag = &tora_.dag();
  if (request.kind == RequestKind::kLeader) {
    const auto elected = leader_.leader();
    if (!elected) {
      request.status = RequestStatus::kNoLeader;
      return;
    }
    target = *elected;
    dag = &leader_.dag();
  }
  if (source == target) return;
  const auto path = dag->route(source);
  if (!path) {
    request.status = RequestStatus::kPartitioned;
    return;
  }
  request.hops = path->size() - 1;
  request.latency = 1 + request.hops;
}

ServiceReport ServiceHarness::run() {
  ServiceReport report;
  const std::size_t nodes = topology_.num_nodes();

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
  std::vector<std::uint32_t> batch;  // the clients woken this tick, in seq order

  const auto start = std::chrono::steady_clock::now();
  TimeIndexEntry entry;
  SimTime now = 0;
  while (index.peek_min_time(now) && now <= options_.duration) {
    // Drain the whole tick: entries pop in (time, seq) order, so the
    // batch order is the issue order regardless of backend.
    batch.clear();
    SimTime peek = 0;
    while (index.peek_min_time(peek) && peek == now) {
      index.pop_min(entry);
      batch.push_back(entry.slot);
    }

    // Churn due at or before this tick, applied to all three services
    // before the tick's first request.
    apply_churn_until(now);

    // One serial pass in issue order: draw the client's request, serve
    // it, tally it, and schedule the client's next wake (latency then
    // think time).
    for (const std::uint32_t client : batch) {
      std::mt19937_64& rng = client_rng[client];
      ServiceRequest request;
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
      const std::uint64_t think = 1 + rng() % 8;
      request.id = next_id++;
      request.issued = now;
      serve(request);

      ServiceKindStats& stats = report.kinds[static_cast<std::size_t>(request.kind)];
      ++stats.issued;
      if (request.status == RequestStatus::kOk) {
        ++stats.completed;
        stats.hops += request.hops;
        stats.histogram.record(request.latency);
      } else {
        ++stats.failed;
      }
      if (options_.keep_trace) report.trace.push_back(request);
      const SimTime next = now + request.latency + think;
      if (next <= options_.duration) index.push(next, seq++, client);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(stop - start).count();

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
