/// Experiment E7 — the distributed deployment: message complexity and
/// simulated convergence time of height-based FR/PR over the asynchronous
/// network, swept over size, delay spread, and link churn; plus the
/// TORA-style routing service under scripted churn.
///
/// Expected shape: PR sends fewer messages than FR on structured
/// instances; convergence time grows with delay spread; churn adds
/// maintenance reversals but never breaks delivery in connected periods.
///
/// E7.6 is the execution-path A/B mode (docs/PERFORMANCE.md): the tora /
/// dist-fr / dist-pr kernels replayed on `path = legacy` (per-run instance
/// regeneration and per-run CSR freezing) versus `path = csr` (the sweep
/// cache's frozen Instance + CsrGraph snapshots).  Record tables must be
/// byte-identical — verified through FNV-1a table checksums — before the
/// per-run timings are trusted; the harness exits non-zero otherwise.
/// `--smoke` shrinks every series to seconds and skips the
/// google-benchmark micro-timings; CI runs it to keep this harness (and
/// the A/B equivalence) from bit-rotting.
///
/// E7.7 is the event-core A/B: dist-fr / dist-pr convergence replayed on
/// the binary-heap and timing-wheel scheduler backends and on the sharded
/// per-node event lanes (sim/sharded_loop.hpp) at 2 and 4 workers.  Every
/// configuration must reproduce the serial heap run's FNV fingerprint
/// (counters, quiescence time, final heights) exactly before the
/// delivered-messages/sec figures are trusted.
///
/// E7.8 is the process-shard A/B: the same sweep executed by the
/// in-process ScenarioRunner and by the shard coordinator over 2 and 4
/// local worker processes (make_shard_coordinator in
/// runner/shard_coordinator.hpp).  The full
/// record + aggregate CSV of every deployment must hash to the
/// single-process fingerprint — the merge contract is byte-identity, not
/// statistical agreement — before the sweep-runs/sec scaling figures are
/// trusted.  This harness is its own sweep worker (main() forwards a
/// `sweep-worker` argv to sweep_worker_main), so the A/B runs even in
/// builds without lr_cli.
///
/// E7.9 is the multi-host A/B: the same sweep served by loopback-TCP
/// `shard-server` endpoints (runner/shard_server.hpp, embedded in this
/// process so the harness stays self-contained) through the same
/// coordinator at 2 hosts x 1 and 2 hosts x 2 workers.  Table
/// fingerprints must match the in-process baseline exactly; the
/// sweeps/sec column is the loopback-TCP counterpart of E7.8's fork/exec
/// figures (docs/PERFORMANCE.md compares the two dataplane overheads).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "routing/tora.hpp"
#include "runner/runner.hpp"
#include "runner/shard_coordinator.hpp"
#include "runner/shard_server.hpp"
#include "runner/thread_pool.hpp"
#include "sim/dist_lr.hpp"
#include "sim/dist_router.hpp"
#include "sim/time_index.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

struct DistOutcome {
  std::uint64_t messages = 0;
  std::uint64_t steps = 0;
  SimTime finish_time = 0;
  bool converged = false;
};

DistOutcome run_dist(const Instance& inst, ReversalRule rule, SimTime max_delay,
                     std::uint64_t seed) {
  Network net(inst.graph, {.min_delay = 1, .max_delay = max_delay, .seed = seed});
  DistLinkReversal proto(inst, rule, net);
  proto.start();
  net.run_until_idle();
  return {net.messages_sent(), proto.total_steps(), net.now(), proto.converged()};
}

void print_size_sweep(bool smoke) {
  bench::print_header("E7.1: distributed FR vs PR, size sweep (delay 1..10)",
                      "both converge; PR does fewer steps/messages on structured DAGs");
  bench::print_row({"instance", "rule", "steps", "messages", "sim_time", "converged"}, 20);
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 128};
  for (const std::size_t n : sizes) {
    const Instance chain = make_worst_case_chain(n);
    std::mt19937_64 rng(n);
    const Instance random = make_random_instance(n, n, rng);
    for (const Instance* inst : {&chain, &random}) {
      for (const ReversalRule rule : {ReversalRule::kFull, ReversalRule::kPartial}) {
        const DistOutcome out = run_dist(*inst, rule, 10, n + 1);
        bench::print_row({inst->name, rule == ReversalRule::kFull ? "FR" : "PR",
                          bench::fmt_u(out.steps), bench::fmt_u(out.messages),
                          bench::fmt_u(out.finish_time), out.converged ? "yes" : "NO"},
                         20);
      }
    }
  }
}

void print_delay_sweep() {
  bench::print_header("E7.2: delay-spread sweep (random n=64, PR rule)",
                      "convergence time grows with delay spread; steps stay stable");
  bench::print_row({"max_delay", "steps", "messages", "sim_time", "converged"});
  std::mt19937_64 rng(64);
  const Instance inst = make_random_instance(64, 64, rng);
  for (const SimTime max_delay : {2u, 10u, 50u, 200u}) {
    const DistOutcome out = run_dist(inst, ReversalRule::kPartial, max_delay, 5);
    bench::print_row({bench::fmt_u(max_delay), bench::fmt_u(out.steps),
                      bench::fmt_u(out.messages), bench::fmt_u(out.finish_time),
                      out.converged ? "yes" : "NO"});
  }
}

void print_churn_sweep(bool smoke) {
  bench::print_header("E7.3: TORA-style routing under link churn",
                      "delivery stays high; maintenance reversals grow with churn");
  bench::print_row({"n", "events", "delivered", "sent", "reversals", "mean_hops"});
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 32, 64};
  const std::vector<std::size_t> event_counts =
      smoke ? std::vector<std::size_t>{20} : std::vector<std::size_t>{20, 80};
  for (const std::size_t n : sizes) {
    for (const std::size_t events : event_counts) {
      std::mt19937_64 rng(n * 7 + events);
      const Graph g = make_random_connected_graph(n, 2 * n, rng);
      const ToraStats stats = run_churn_scenario(g, 0, events, 10, n + events);
      const double mean_hops =
          stats.packets_delivered == 0
              ? 0.0
              : static_cast<double>(stats.total_hops) /
                    static_cast<double>(stats.packets_delivered);
      bench::print_row({std::to_string(n), std::to_string(events),
                        bench::fmt_u(stats.packets_delivered), bench::fmt_u(stats.packets_sent),
                        bench::fmt_u(stats.reversals), bench::fmt(mean_hops)});
    }
  }
}

void print_data_plane_sweep(bool smoke) {
  bench::print_header("E7.4: data-plane delivery during DAG repair (DistRouter)",
                      "packets injected mid-repair are delivered or accounted, never looped");
  bench::print_row({"instance", "injected", "delivered", "no_route", "ttl_drop", "mean_hops"},
                   22);
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64};
  for (const std::size_t n : sizes) {
    std::mt19937_64 rng(n * 3 + 1);
    for (const Instance& inst :
         {make_worst_case_chain(n), make_unit_disk_instance(n, 0.35, rng)}) {
      Network net(inst.graph, {.min_delay = 1, .max_delay = 8, .seed = n});
      DistLinkReversal proto(inst, ReversalRule::kPartial, net);
      DistRouter router(proto, net);
      proto.start();
      // Inject one packet per node while the control plane is still busy.
      for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) router.inject(u);
      net.run_until_idle();
      // And another wave after convergence.
      for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) router.inject(u);
      net.run_until_idle();
      const PacketStats& s = router.stats();
      bench::print_row({inst.name, bench::fmt_u(s.injected), bench::fmt_u(s.delivered),
                        bench::fmt_u(s.dropped_no_route), bench::fmt_u(s.dropped_ttl),
                        bench::fmt(router.mean_hops())},
                       22);
    }
  }
}

void print_loss_recovery_sweep() {
  bench::print_header("E7.5: convergence under message loss with resync rounds",
                      "resync repairs stale views; rounds grow with loss rate");
  bench::print_row({"loss", "resync_rounds", "steps", "messages", "converged"});
  std::mt19937_64 rng(77);
  const Instance inst = make_random_instance(32, 32, rng);
  for (const double loss : {0.0, 0.2, 0.4, 0.6}) {
    Network net(inst.graph,
                {.min_delay = 1, .max_delay = 5, .seed = 3, .drop_probability = loss});
    DistLinkReversal proto(inst, ReversalRule::kPartial, net);
    const auto rounds = proto.run_with_resync(500);
    bench::print_row({bench::fmt(loss), rounds ? bench::fmt_u(*rounds) : "none",
                      bench::fmt_u(proto.total_steps()), bench::fmt_u(net.messages_sent()),
                      proto.converged() ? "yes" : "NO"});
  }
}

// ---------------------------------------------------------------------------
// E7.6: the legacy-vs-CSR A/B comparison of the tora / dist-* kernels
// ---------------------------------------------------------------------------

/// The stock E7 scenario set the A/B equality check replays on both paths.
std::vector<RunSpec> stock_specs(bool smoke) {
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, 32, 64};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};
  std::vector<RunSpec> specs;
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom}) {
    for (const std::size_t size : sizes) {
      for (const AlgorithmKind algorithm :
           {AlgorithmKind::kTora, AlgorithmKind::kDistFR, AlgorithmKind::kDistPR}) {
        for (const std::uint64_t seed : seeds) {
          RunSpec spec;
          spec.topology = topology;
          spec.size = size;
          spec.algorithm = algorithm;
          spec.seed = seed;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

/// E7.6 driver; returns false (failing the harness) if any path pair
/// diverged in tables or checksums.  The equality check, the warm-cache
/// timing protocol, and the checksum columns are the shared kit in
/// bench_util.hpp.
bool print_ab_series(bool smoke) {
  bench::print_header("E7.6: execution-path A/B, per-run regeneration vs cached CSR snapshots",
                      "identical tables and table checksums; csr amortizes instance "
                      "generation + snapshot freezing across a sweep (docs/PERFORMANCE.md)");
  const bool tables_ok = bench::ab_tables_identical(stock_specs(smoke));

  const std::size_t n = smoke ? 12 : 64;
  const std::string label = "random-" + std::to_string(n);
  std::vector<bench::AbSample> samples;
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kTora, AlgorithmKind::kDistFR, AlgorithmKind::kDistPR}) {
    RunSpec spec;
    spec.topology = TopologyKind::kRandom;
    spec.size = n;
    spec.algorithm = algorithm;
    spec.seed = 1;
    samples.push_back(bench::measure_cached_ab(label, spec, smoke ? 20.0 : 300.0));
  }
  bench::emit_csv(bench::ab_table(samples));

  bool checksums_ok = true;
  for (const bench::AbSample& sample : samples) checksums_ok &= sample.identical();
  std::printf("table checksums: %s\n", checksums_ok ? "all identical" : "MISMATCH");
  return tables_ok && checksums_ok;
}

// ---------------------------------------------------------------------------
// E7.7: the event-core A/B — heap vs wheel vs sharded event lanes
// ---------------------------------------------------------------------------

/// Runs one dist-LR convergence and folds every observable counter plus
/// the final per-node heights into an FNV fingerprint.  Every event-core
/// configuration (scheduler backend x worker count) must reproduce this
/// fingerprint exactly — the knobs are perf switches, not semantics.
std::uint64_t dist_fingerprint(const Instance& inst, ReversalRule rule, NetworkConfig config) {
  Network net(inst.graph, config);
  DistLinkReversal proto(inst, rule, net);
  proto.start();
  net.run_until_idle();
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(net.messages_sent());
  mix(net.messages_delivered());
  mix(net.messages_dropped());
  mix(net.now());
  mix(proto.total_steps());
  mix(proto.converged() ? 1 : 0);
  for (NodeId u = 0; u < inst.graph.num_nodes(); ++u) {
    const auto [a, b, id] = proto.height(u);
    mix(static_cast<std::uint64_t>(a));
    mix(static_cast<std::uint64_t>(b));
    mix(id);
  }
  return hash;
}

/// E7.7 driver; returns false if any configuration's fingerprint diverges
/// from the serial heap baseline.  Throughput is delivered messages per
/// wall-clock second of the whole convergence run (the sweep-relevant
/// figure for docs/PERFORMANCE.md); sharded rows borrow a pre-built pool
/// so pool construction is not billed to the event core.
bool print_event_core_series(bool smoke) {
  bench::print_header("E7.7: event-core A/B, heap vs wheel vs sharded event lanes",
                      "identical run fingerprints at every scheduler x worker count; "
                      "delivered messages/sec per configuration (docs/PERFORMANCE.md)");
  const std::size_t n = smoke ? 24 : 96;
  std::mt19937_64 rng(n);
  const Instance inst = make_random_instance(n, n, rng);
  const NetworkConfig base{.min_delay = 1, .max_delay = 12, .seed = 7};
  ThreadPool pool2(2);
  ThreadPool pool4(4);

  struct CoreConfig {
    const char* label;
    EventSchedulerKind scheduler;
    ThreadPool* pool;  // nullptr: serial EventQueue
  };
  const CoreConfig configs[] = {
      {"heap t=1", EventSchedulerKind::kHeap, nullptr},
      {"wheel t=1", EventSchedulerKind::kWheel, nullptr},
      {"wheel t=2", EventSchedulerKind::kWheel, &pool2},
      {"wheel t=4", EventSchedulerKind::kWheel, &pool4},
  };

  Table table;
  table.columns = {"rule", "config", "delivered", "msgs_per_sec", "fingerprint", "identical"};
  bool identical = true;
  for (const ReversalRule rule : {ReversalRule::kFull, ReversalRule::kPartial}) {
    std::uint64_t reference = 0;
    for (const CoreConfig& core : configs) {
      NetworkConfig config = base;
      config.scheduler = core.scheduler;
      config.sim_threads = core.pool == nullptr ? 1 : core.pool->size();
      config.sim_pool = core.pool;
      const std::uint64_t fingerprint = dist_fingerprint(inst, rule, config);
      if (core.pool == nullptr && core.scheduler == EventSchedulerKind::kHeap)
        reference = fingerprint;
      identical &= fingerprint == reference;

      std::uint64_t delivered = 0;
      const double ns_per_run = bench::measure_ns_per_iter(
          [&] {
            Network net(inst.graph, config);
            DistLinkReversal proto(inst, rule, net);
            proto.start();
            net.run_until_idle();
            delivered = net.messages_delivered();
          },
          smoke ? 1 : 5, smoke ? 0.0 : 200.0);
      const double msgs_per_sec = static_cast<double>(delivered) * 1e9 / ns_per_run;
      table.add_row({rule == ReversalRule::kFull ? "dist-fr" : "dist-pr", core.label,
                     bench::fmt_u(delivered), bench::fmt(msgs_per_sec),
                     bench::fmt_hex(fingerprint), fingerprint == reference ? "yes" : "NO"});
    }
  }
  bench::emit_csv(table);
  std::printf("run fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

// ---------------------------------------------------------------------------
// E7.8: the process-shard A/B — in-process sweep vs multi-process shards
// ---------------------------------------------------------------------------

/// E7.8 driver; returns false if any multi-process deployment's table
/// fingerprint diverges from the single-process baseline.  Throughput is
/// whole sweeps per second (spawn + spec shipping + execution + merge),
/// so the figure honestly charges the fork/exec and framing overhead the
/// dataplane adds (docs/PERFORMANCE.md).
bool print_process_shard_series(bool smoke) {
  bench::print_header("E7.8: process-shard A/B, in-process sweep vs worker processes",
                      "identical table fingerprints at every worker count; "
                      "sweeps/sec per deployment (docs/PERFORMANCE.md)");
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, 32};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR, AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = smoke ? std::vector<std::uint64_t>{1, 2} : std::vector<std::uint64_t>{1, 2, 3, 4};
  sweep.max_steps = 500'000;

  const auto fingerprint_of = [](const SweepReport& report) {
    return bench::fnv1a(bench::sweep_report_csv(report));
  };

  Table table;
  table.columns = {"deployment", "runs", "sweeps_per_sec", "fingerprint", "identical"};
  bool identical = true;
  std::uint64_t reference = 0;

  const auto add_row = [&](const char* label, std::uint64_t fingerprint, double ns_per_sweep,
                           std::size_t runs) {
    if (reference == 0) reference = fingerprint;
    identical &= fingerprint == reference;
    table.add_row({label, bench::fmt_u(runs), bench::fmt(1e9 / ns_per_sweep),
                   bench::fmt_hex(fingerprint), fingerprint == reference ? "yes" : "NO"});
  };

  const std::size_t runs = sweep.run_count();
  {
    const ScenarioRunner runner({.threads = 1});
    std::uint64_t fingerprint = 0;
    const double ns = bench::measure_ns_per_iter(
        [&] { fingerprint = fingerprint_of(runner.run(sweep)); }, smoke ? 1 : 3,
        smoke ? 0.0 : 200.0);
    add_row("in-process t=1", fingerprint, ns, runs);
  }
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    ShardCoordinator coordinator =
        make_shard_coordinator({.threads = 1, .process_workers = workers}, {});
    std::uint64_t fingerprint = 0;
    const double ns = bench::measure_ns_per_iter(
        [&] { fingerprint = fingerprint_of(coordinator.run(sweep)); }, smoke ? 1 : 3,
        smoke ? 0.0 : 200.0);
    const std::string label = "processes n=" + std::to_string(workers);
    add_row(label.c_str(), fingerprint, ns, runs);
  }
  bench::emit_csv(table);
  std::printf("table fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

// ---------------------------------------------------------------------------
// E7.9: the multi-host A/B — in-process sweep vs loopback-TCP shard servers
// ---------------------------------------------------------------------------

/// E7.9 driver; returns false if any multi-host deployment's table
/// fingerprint diverges from the single-process baseline.  The shard
/// servers are embedded (real TCP over loopback, no daemons), so the
/// figure charges connect + framing + heartbeat overhead but not
/// process spawning — the complement of E7.8.
bool print_multi_host_series(bool smoke) {
  bench::print_header("E7.9: multi-host A/B, in-process sweep vs loopback-TCP shard servers",
                      "identical table fingerprints at every host x worker count; "
                      "sweeps/sec per deployment (docs/PERFORMANCE.md)");
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{12} : std::vector<std::size_t>{16, 32};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR, AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = smoke ? std::vector<std::uint64_t>{1, 2} : std::vector<std::uint64_t>{1, 2, 3, 4};
  sweep.max_steps = 500'000;

  const auto fingerprint_of = [](const SweepReport& report) {
    return bench::fnv1a(bench::sweep_report_csv(report));
  };

  Table table;
  table.columns = {"deployment", "runs", "sweeps_per_sec", "fingerprint", "identical"};
  bool identical = true;
  std::uint64_t reference = 0;

  const auto add_row = [&](const std::string& label, std::uint64_t fingerprint,
                           double ns_per_sweep, std::size_t runs) {
    if (reference == 0) reference = fingerprint;
    identical &= fingerprint == reference;
    table.add_row({label, bench::fmt_u(runs), bench::fmt(1e9 / ns_per_sweep),
                   bench::fmt_hex(fingerprint), fingerprint == reference ? "yes" : "NO"});
  };

  const std::size_t runs = sweep.run_count();
  {
    const ScenarioRunner runner({.threads = 1});
    std::uint64_t fingerprint = 0;
    const double ns = bench::measure_ns_per_iter(
        [&] { fingerprint = fingerprint_of(runner.run(sweep)); }, smoke ? 1 : 3,
        smoke ? 0.0 : 200.0);
    add_row("in-process t=1", fingerprint, ns, runs);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ShardServer server_a;
    ShardServer server_b;
    server_a.start();
    server_b.start();
    const std::vector<HostSpec> hosts = {{"127.0.0.1", server_a.port(), workers},
                                         {"127.0.0.1", server_b.port(), workers}};
    std::uint64_t fingerprint = 0;
    const double ns = bench::measure_ns_per_iter(
        [&] {
          ShardCoordinator coordinator = make_shard_coordinator({.threads = 1}, hosts);
          fingerprint = fingerprint_of(coordinator.run(sweep));
        },
        smoke ? 1 : 3, smoke ? 0.0 : 200.0);
    add_row("hosts 2x" + std::to_string(workers), fingerprint, ns, runs);
  }
  bench::emit_csv(table);
  std::printf("table fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

void BM_DistributedPRConvergence(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(21);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dist(inst, ReversalRule::kPartial, 10, 3).messages);
  }
}
BENCHMARK(BM_DistributedPRConvergence)->Arg(32)->Arg(128);

void BM_ChurnScenario(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(22);
  const Graph g = make_random_connected_graph(n, 2 * n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_churn_scenario(g, 0, 20, 5, 9).packets_delivered);
  }
}
BENCHMARK(BM_ChurnScenario)->Arg(32)->Arg(128);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  // Self-hosting sweep worker for the E7.8 process-shard A/B: the
  // process transport fork/execs this very binary (/proc/self/exe).
  if (argc > 1 && std::string(argv[1]) == "sweep-worker") {
    return lr::sweep_worker_main(argc, argv);
  }
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  lr::print_size_sweep(smoke);
  if (!smoke) lr::print_delay_sweep();
  lr::print_churn_sweep(smoke);
  lr::print_data_plane_sweep(smoke);
  if (!smoke) lr::print_loss_recovery_sweep();
  if (!lr::print_ab_series(smoke)) {
    std::fprintf(stderr, "E7.6 A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_event_core_series(smoke)) {
    std::fprintf(stderr, "E7.7 event-core A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_process_shard_series(smoke)) {
    std::fprintf(stderr, "E7.8 process-shard A/B verification FAILED\n");
    return 1;
  }
  if (!lr::print_multi_host_series(smoke)) {
    std::fprintf(stderr, "E7.9 multi-host A/B verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
