/// lr_cli — command-line front end to the whole library.
///
///   lr_cli gen <family> <n> <seed> <out.lri>
///       Families: chain | random | grid | layered | star.
///       Writes a workload instance file (text format, see serialize.hpp).
///
///   lr_cli info <in.lri>
///       Prints topology, initial bad nodes, sinks, acyclicity.
///
///   lr_cli run <in.lri> <pr|newpr|fr> <lowest|random|rr|farthest> [seed]
///       Runs the algorithm to quiescence, prints work stats, and emits
///       the final DAG as DOT on stdout (pipe into `dot -Tpng`).
///
///   lr_cli modelcheck <in.lri> <pr|newpr|fr>
///       Exhaustively explores ALL schedules and checks acyclicity in
///       every reachable state (small instances only).
///
///   lr_cli sweep <spec.sweep> [--threads N] [--records out.csv]
///              [--json out.json] [--processes N] [--retries N]
///              [--snapshot-dir DIR] [--hosts host:port[*W],...]
///              [--shard-log PATH|-]
///       Expands the declarative sweep spec (topology x size x algorithm x
///       scheduler x seed; see docs/EXPERIMENTS.md) and executes every run
///       on a fixed-size thread pool, which builds each workload once and
///       holds it only while its runs execute.  Prints the aggregate table
///       as CSV on stdout — byte-identical for every --threads value
///       (at most 256; 0 = hardware concurrency).
///       --processes N (at most 256) shards the sweep across N
///       shared-nothing `sweep-worker` child processes, each serving the
///       same worker session as `shard-server` over a socketpair for the
///       whole sweep: the sweep is cut into claims of whole workloads,
///       largest first, and each session takes the next claim as soon as
///       it finishes one, with heartbeats both ways and crash-isolated
///       retries of the lost claim (--retries, default 2); tables stay
///       byte-identical to the in-process run at every worker count.
///       With --processes, --threads sets each worker's internal thread
///       count (default 1).
///       --snapshot-dir DIR persists each generated workload as an
///       mmap-reloadable snapshot file in DIR (created if absent) and
///       reloads it on later sweeps — and, with --processes, in every
///       worker, which then share one physical copy of the pages.  Purely
///       a performance switch: tables are byte-identical with and without
///       it.
///       --hosts shards the sweep across remote `lr_cli shard-server`
///       daemons over TCP instead of local child processes (entries are
///       host:port with an optional *W concurrent-session count, W
///       default 1).  Heartbeats in both directions bound every partial
///       failure; dead hosts have their unfinished claims reassigned to
///       the survivors, and --processes N arms a local N-worker fallback
///       engaged only if every host dies.  Tables stay byte-identical to
///       the in-process run at every host and worker count.  --hosts
///       composes with --retries/--threads but not with
///       --snapshot-dir (remote hosts do not share this filesystem).
///       --shard-log PATH writes a per-attempt CSV log (shard, attempt,
///       endpoint, outcome, elapsed_ms, backoff_ms, shard_completed,
///       session; `shard` is the claim) after a sharded sweep; `-` logs to
///       stderr.  Requires --processes or --hosts.
///
///   lr_cli shard-server --listen <port> [--bind <address>]
///       The worker daemon of `sweep --hosts`: serves shard-protocol
///       sessions (one per connection, any number of claims each) until
///       SIGINT/SIGTERM.
///       Prints "shard-server listening on <address>:<port>" when ready.
///
///   lr_cli snapshot save <topology> <size> <seed> <out.lrsnap>
///   lr_cli snapshot info <in.lrsnap>
///       Builds the named sweep workload (same recipes as the sweep
///       topology axis) and persists it as an mmap snapshot file; `info`
///       validates an existing file (magic, extents, checksum) and prints
///       its shape and CSR fingerprint.
///
///   lr_cli serve <topology> <size> [--workload route|lock|leader|mixed]
///              [--clients N] [--duration T] [--seed S]
///              [--scheduler heap|wheel] [--churn T] [--json out.json]
///       Runs the request-serving harness (service/service_harness.hpp)
///       over the named sweep topology under random link churn and prints
///       the latency report (p50/p99/p999, per request kind) as CSV on
///       stdout.  stdout is byte-identical under both --scheduler
///       backends (the determinism contract); wall-clock throughput goes
///       to stderr.
///
///   lr_cli sweep-worker (internal)
///       Child-process entry point spawned by `sweep --processes N`: serves
///       one worker session over the socketpair end it inherits as stdin
///       and stdout.  Not for direct invocation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/game.hpp"
#include "automata/executor.hpp"
#include "automata/model_check.hpp"
#include "core/full_reversal.hpp"
#include "core/invariants.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "graph/digraph_algos.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "graph/snapshot.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_coordinator.hpp"
#include "runner/shard_server.hpp"
#include "runner/shard_transport.hpp"
#include "service/service_harness.hpp"
#include "trace/report.hpp"

namespace {

using namespace lr;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lr_cli gen <chain|random|grid|layered|star> <n> <seed> <out.lri>\n"
               "  lr_cli info <in.lri>\n"
               "  lr_cli run <in.lri> <pr|newpr|fr> <lowest|random|rr|farthest> [seed]\n"
               "  lr_cli modelcheck <in.lri> <pr|newpr|fr>\n"
               "  lr_cli sweep <spec.sweep> [--threads N]"
               " [--records out.csv] [--json out.json]\n"
               "               [--processes N] [--retries N] [--snapshot-dir DIR]\n"
               "               [--hosts host:port[*W],...] [--shard-log PATH|-]\n"
               "      --processes shards the sweep across N local worker processes\n"
               "      (1..256), each serving the shard-server session over a socketpair\n"
               "      and claiming whole workloads on demand; tables are byte-identical\n"
               "      to the in-process run at every N\n"
               "      --snapshot-dir persists workloads as mmap snapshot files and\n"
               "      reloads them on later sweeps and in every worker process\n"
               "      --hosts shards across remote `lr_cli shard-server` daemons over\n"
               "      TCP (dead hosts are reassigned; with --processes N a local\n"
               "      N-worker fallback engages if every host dies); not combinable\n"
               "      with --snapshot-dir\n"
               "      --shard-log writes a per-attempt CSV log, one row per claim attempt\n"
               "      with the serving session (requires --processes or --hosts); `-`\n"
               "      logs to stderr\n"
               "  lr_cli shard-server --listen <port> [--bind <address>]\n"
               "      serves sweep shards to a remote `sweep --hosts` coordinator\n"
               "  lr_cli snapshot save <topology> <size> <seed> <out.lrsnap>\n"
               "  lr_cli snapshot info <in.lrsnap>\n"
               "  lr_cli serve <chain|random|grid|layered|star|unitdisk|torus|"
               "widerandom|waypoint> <n>"
               " [--workload route|lock|leader|mixed]\n"
               "               [--clients N] [--duration T] [--seed S]\n"
               "               [--scheduler heap|wheel] [--churn T] [--json out.json]\n"
               "      latency CSV on stdout is byte-identical under both --scheduler\n"
               "      backends; throughput goes to stderr\n");
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc != 6) return usage();
  const std::string family = argv[2];
  const std::size_t n = std::strtoull(argv[3], nullptr, 10);
  const std::uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  std::mt19937_64 rng(seed);
  Instance inst;
  if (family == "chain") {
    inst = make_worst_case_chain(n);
  } else if (family == "random") {
    inst = make_random_instance(n, n, rng);
  } else if (family == "grid") {
    inst = make_grid_instance(n / 8 + 2, 8, rng);
  } else if (family == "layered") {
    inst = make_layered_bad_instance(n / 8 + 2, 8, 0.3, rng);
  } else if (family == "star") {
    inst = make_sink_source_instance(n | 1);
  } else {
    return usage();
  }
  save_instance(argv[5], inst);
  std::printf("wrote %s: %s, destination %u\n", argv[5], inst.graph.describe().c_str(),
              inst.destination);
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc != 3) return usage();
  const Instance inst = load_instance(argv[2]);
  const Orientation o = inst.make_orientation();
  std::printf("name        : %s\n", inst.name.c_str());
  std::printf("topology    : %s\n", inst.graph.describe().c_str());
  std::printf("destination : %u\n", inst.destination);
  std::printf("acyclic     : %s\n", is_acyclic(o) ? "yes" : "NO");
  std::printf("bad nodes   : %zu\n", bad_nodes(o, inst.destination).size());
  std::printf("sinks       : %zu\n", sinks_excluding(o, inst.destination).size());
  return 0;
}

template <typename A>
int run_algorithm(const Instance& inst, SchedulerKind scheduler, std::uint64_t seed) {
  A automaton(inst);
  const RunResult result = with_single_scheduler(
      scheduler, seed, [&automaton](auto&& s) { return run_to_quiescence(automaton, s); });
  std::fprintf(stderr, "steps=%llu edge_reversals=%llu quiescent=%s destination_oriented=%s\n",
               static_cast<unsigned long long>(result.steps),
               static_cast<unsigned long long>(result.edge_reversals),
               result.quiescent ? "yes" : "no", result.destination_oriented ? "yes" : "no");
  write_dot(std::cout, automaton.orientation(), {.destination = automaton.destination()});
  return result.destination_oriented ? 0 : 1;
}

int cmd_run(int argc, char** argv) {
  if (argc != 5 && argc != 6) return usage();
  const Instance inst = load_instance(argv[2]);
  const std::string algo = argv[3];
  SchedulerKind sched = SchedulerKind::kLowestId;
  try {
    sched = parse_scheduler(argv[4]);
  } catch (const std::invalid_argument&) {
    return usage();
  }
  const std::uint64_t seed = argc == 6 ? std::strtoull(argv[5], nullptr, 10) : 1;
  if (algo == "pr") return run_algorithm<OneStepPRAutomaton>(inst, sched, seed);
  if (algo == "newpr") return run_algorithm<NewPRAutomaton>(inst, sched, seed);
  if (algo == "fr") return run_algorithm<FullReversalAutomaton>(inst, sched, seed);
  return usage();
}

template <typename A>
int model_check_algorithm(const Instance& inst) {
  A initial(inst);
  const auto result = model_check(initial, [](const A& a) -> std::string {
    const auto check = check_acyclic(a.orientation());
    return check.ok ? std::string{} : check.detail;
  });
  std::printf("states explored      : %zu\n", result.states_explored);
  std::printf("transitions explored : %zu\n", result.transitions_explored);
  std::printf("acyclic everywhere   : %s\n", result.ok ? "yes" : "NO");
  if (!result.ok) {
    std::printf("violation            : %s\n", result.failure.c_str());
    std::printf("counterexample       :");
    for (const NodeId u : result.counterexample) std::printf(" %u", u);
    std::printf("\n");
  }
  return result.ok ? 0 : 1;
}

int cmd_modelcheck(int argc, char** argv) {
  if (argc != 4) return usage();
  const Instance inst = load_instance(argv[2]);
  const std::string algo = argv[3];
  if (algo == "pr") return model_check_algorithm<OneStepPRAutomaton>(inst);
  if (algo == "newpr") return model_check_algorithm<NewPRAutomaton>(inst);
  if (algo == "fr") return model_check_algorithm<FullReversalAutomaton>(inst);
  return usage();
}

/// Writes the per-attempt shard log (`sweep --shard-log`) as CSV: one
/// row per dispatched attempt of a claim, outcomes quoted, the serving
/// session last.  `-` logs to stderr so stdout stays byte-identical to an
/// unlogged sweep.
int write_shard_log(const std::string& path, const std::vector<ShardDiagnostics>& diagnostics) {
  std::ofstream file;
  std::ostream* os = &std::cerr;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "error: cannot write shard log '%s'\n", path.c_str());
      return 1;
    }
    os = &file;
  }
  *os << "shard,attempt,endpoint,outcome,elapsed_ms,backoff_ms,shard_completed,session\n";
  for (const ShardDiagnostics& diag : diagnostics) {
    for (const ShardAttemptLog& entry : diag.attempt_log) {
      std::string outcome;
      outcome.reserve(entry.outcome.size() + 2);
      for (const char c : entry.outcome) {  // CSV quoting: double the quotes
        outcome += c;
        if (c == '"') outcome += '"';
      }
      *os << diag.shard << ',' << entry.attempt << ',' << entry.endpoint << ",\"" << outcome
          << "\"," << entry.elapsed_ms << ',' << entry.backoff_ms << ','
          << (diag.completed ? "yes" : "no") << ',' << entry.session << '\n';
    }
  }
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string spec_path = argv[2];
  RunnerOptions options;
  std::string records_path;
  std::string json_path;
  std::string shard_log_path;
  std::vector<HostSpec> hosts;
  bool threads_given = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();  // every sweep flag takes a value
    const std::string value = argv[++i];
    if (flag == "--hosts") {
      try {
        hosts = parse_host_list(value);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return usage();
      }
    } else if (flag == "--shard-log") {
      if (value.empty()) return usage();
      shard_log_path = value;
    } else if (flag == "--threads" || flag == "--processes" || flag == "--retries") {
      char* end = nullptr;
      const std::size_t parsed = std::strtoull(value.c_str(), &end, 10);
      // Reject non-numeric or negative input instead of silently wrapping
      // ("-1" would otherwise become a 2^64-sized thread pool).
      if (value.empty() || *end != '\0' || value[0] == '-') return usage();
      if (flag == "--threads") {
        if (parsed > kMaxThreads) return usage();  // sizes a pool: capped like a spec's counts
        options.threads = parsed;
        threads_given = true;
      } else if (flag == "--processes") {
        // 0 is rejected: "no worker processes" is spelled by omitting the
        // flag, and silently falling back in-process would misreport the
        // deployment the user asked to measure.  The cap keeps a typo from
        // forking thousands of workers.
        if (parsed == 0 || parsed > kMaxThreads) return usage();
        options.process_workers = parsed;
      } else {
        options.worker_retries = parsed;
      }
    } else if (flag == "--records") {
      records_path = value;
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--snapshot-dir") {
      options.snapshot_dir = value;
    } else {
      return usage();
    }
  }

  if (!hosts.empty() && !options.snapshot_dir.empty()) {
    // Remote shard-servers have no shared filesystem with the
    // coordinator; silently writing snapshots host-locally would not be
    // the deployment the user asked for.
    std::fprintf(stderr, "error: --hosts cannot be combined with --snapshot-dir\n");
    return usage();
  }
  if (!shard_log_path.empty() && hosts.empty() && options.process_workers == 0) {
    std::fprintf(stderr,
                 "error: --shard-log requires a sharded backend (--processes or --hosts)\n");
    return usage();
  }

  std::ifstream spec_file(spec_path);
  if (!spec_file) {
    std::fprintf(stderr, "error: cannot open sweep spec '%s'\n", spec_path.c_str());
    return 1;
  }
  const SweepSpec spec = SweepSpec::parse(spec_file);

  SweepReport report;
  std::string deployment;
  std::vector<ShardDiagnostics> shard_diagnostics;
  const auto started = std::chrono::steady_clock::now();
  if (!hosts.empty() || options.process_workers > 0) {
    // Sharded backends: local worker processes, or remote `lr_cli
    // shard-server` daemons over TCP, where --processes N instead arms an
    // N-worker local fallback engaged only if every host dies.  Each
    // worker is shared-nothing, so --threads is per worker and defaults
    // to 1 (not hardware concurrency, which would oversubscribe N-fold).
    if (!threads_given) options.threads = 1;
    ShardCoordinator coordinator = make_shard_coordinator(options, hosts);
    report = coordinator.run(spec);
    shard_diagnostics = coordinator.shard_diagnostics();
    const std::size_t capacity = coordinator.total_capacity();
    const std::size_t workers = std::min(capacity, shard_diagnostics.size());
    if (workers < capacity) {
      if (hosts.empty()) {
        std::fprintf(stderr, "note: --processes %zu clamped to %zu (one worker per claim)\n",
                     capacity, workers);
      } else {
        std::fprintf(stderr, "note: %zu remote worker(s) clamped to %zu (one worker per claim)\n",
                     capacity, workers);
      }
    }
    std::size_t retries = 0;
    for (const ShardDiagnostics& diag : shard_diagnostics) {
      retries += diag.failures.size();
      for (const std::string& failure : diag.failures) {
        std::fprintf(stderr, "shard %zu retry: %s\n", diag.shard, failure.c_str());
      }
    }
    const std::string threads = std::to_string(options.threads) + " thread(s), ";
    deployment = hosts.empty()
                     ? std::to_string(workers) + " process(es) x " + threads +
                           std::to_string(retries) + " worker retry(ies)"
                     : std::to_string(hosts.size()) + " host(s) x " + std::to_string(capacity) +
                           " worker(s) x " + threads + std::to_string(retries) +
                           " shard retry(ies)";
    if (coordinator.fallback_engaged()) deployment += ", local fallback engaged";
  } else {
    const ScenarioRunner runner(options);
    report = runner.run(spec);
    deployment = std::to_string(runner.threads()) + " thread(s)";
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - started)
                              .count();

  std::uint64_t errors = 0;
  for (const RunRecord& record : report.records) {
    if (!record.error.empty()) ++errors;
  }
  // Wall-clock and cache stats only on stderr: stdout must be identical
  // across thread and process counts.  "resident" is the most workloads
  // held at once, summed over the worker processes of a sharded sweep.
  std::fprintf(stderr, "sweep: %zu runs on %s in %lld ms, %llu error(s)\n",
               report.records.size(), deployment.c_str(), static_cast<long long>(elapsed_ms),
               static_cast<unsigned long long>(errors));
  std::fprintf(stderr, "cache: %zu workload(s) resident, %llu hit(s), %llu miss(es)\n",
               report.cache.peak_entries, static_cast<unsigned long long>(report.cache.hits),
               static_cast<unsigned long long>(report.cache.misses));
  if (!options.snapshot_dir.empty()) {
    // --hosts rejects --snapshot-dir above, so these are the in-process
    // cache's counters or the sum of the worker processes'.
    std::fprintf(stderr, "snapshots: %llu mmap reload(s), %llu save(s) in %s\n",
                 static_cast<unsigned long long>(report.cache.snapshot_loads),
                 static_cast<unsigned long long>(report.cache.snapshot_saves),
                 options.snapshot_dir.c_str());
  }

  if (!shard_log_path.empty()) {
    const int log_status = write_shard_log(shard_log_path, shard_diagnostics);
    if (log_status != 0) return log_status;
  }

  write_table_csv(std::cout, report.aggregate_table());
  if (!records_path.empty()) {
    std::ofstream os(records_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write '%s'\n", records_path.c_str());
      return 1;
    }
    write_table_csv(os, report.records_table());
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    write_table_json(os, report.records_table());
  }
  return errors == 0 ? 0 : 1;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string verb = argv[2];
  if (verb == "save") {
    if (argc != 7) return usage();
    RunSpec spec;
    try {
      spec.topology = parse_topology(argv[3]);
    } catch (const std::invalid_argument&) {
      return usage();
    }
    for (const int arg : {4, 5}) {
      char* end = nullptr;
      const std::string value = argv[arg];
      const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return usage();
      if (arg == 4) {
        if (parsed == 0) return usage();
        spec.size = static_cast<std::size_t>(parsed);
      } else {
        spec.seed = parsed;
      }
    }
    // Same workload the sweep axis would build, frozen and persisted: a
    // later `sweep --snapshot-dir` (or `snapshot info`) mmap-reloads it.
    const Instance instance = make_instance(spec);
    const CsrGraph csr(instance.graph, instance.senses);
    save_snapshot(argv[6], instance, csr);
    std::printf("wrote %s: %s, destination %u, fingerprint %016llx\n", argv[6],
                instance.graph.describe().c_str(), instance.destination,
                static_cast<unsigned long long>(csr.fingerprint()));
    return 0;
  }
  if (verb == "info") {
    if (argc != 4) return usage();
    const Snapshot snap = Snapshot::load(argv[3]);  // validates magic + extents + checksum
    std::printf("name        : %s\n", snap.name().c_str());
    std::printf("nodes       : %zu\n", snap.num_nodes());
    std::printf("edges       : %zu\n", snap.num_edges());
    std::printf("destination : %u\n", snap.destination());
    std::printf("file bytes  : %zu\n", snap.file_bytes());
    std::printf("fingerprint : %016llx\n",
                static_cast<unsigned long long>(snap.csr().fingerprint()));
    std::printf("checksum    : ok\n");
    return 0;
  }
  return usage();
}

int cmd_serve(int argc, char** argv) {
  if (argc < 4) return usage();
  TopologyKind topology;
  try {
    topology = parse_topology(argv[2]);
  } catch (const std::invalid_argument&) {
    return usage();
  }
  ServiceOptions options;
  RunSpec instance_spec;
  instance_spec.topology = topology;
  std::string json_path;
  std::uint64_t seed = 1;
  {
    char* end = nullptr;
    const std::string value = argv[3];
    instance_spec.size = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || value[0] == '-' || instance_spec.size == 0) {
      return usage();
    }
  }
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();  // every serve flag takes a value
    const std::string value = argv[++i];
    if (flag == "--workload") {
      try {
        options.workload = parse_service_workload(value);
      } catch (const std::invalid_argument&) {
        return usage();
      }
    } else if (flag == "--scheduler") {
      try {
        options.scheduler = parse_event_scheduler(value);
      } catch (const std::invalid_argument&) {
        return usage();
      }
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--clients" || flag == "--duration" || flag == "--seed" ||
               flag == "--churn") {
      char* end = nullptr;
      const std::uint64_t parsed = std::strtoull(value.c_str(), &end, 10);
      // Same rejection rule as sweep: non-numeric or negative input fails
      // loudly instead of wrapping.
      if (value.empty() || *end != '\0' || value[0] == '-') return usage();
      if (flag == "--clients") {
        if (parsed == 0) return usage();
        options.clients = static_cast<std::size_t>(parsed);
      } else if (flag == "--duration") {
        options.duration = parsed;
      } else if (flag == "--seed") {
        seed = parsed;
      } else {
        options.churn_interval = parsed;
      }
    } else {
      return usage();
    }
  }

  // Derive the workload and harness seeds exactly like the sweep layer's
  // service kernel, so `serve chain 32 --seed 3` reproduces the sweep row
  // (topology=chain, size=32, seed=3, algorithm=service).
  instance_spec.seed = seed;
  options.seed = instance_spec.network_seed();
  const Instance instance = make_instance(instance_spec);

  ServiceHarness harness(instance.graph, instance.destination, options);
  const ServiceReport report = harness.run();
  const Table table = report.latency_table();

  // Deterministic report on stdout; wall-clock throughput and churn
  // accounting only on stderr (outside the determinism contract).
  std::fprintf(stderr,
               "serve: %llu request(s) in %.3f s (%.0f req/s), %llu churn event(s), "
               "%llu reversal step(s)\n",
               static_cast<unsigned long long>(report.total_issued()), report.wall_seconds,
               report.requests_per_sec(), static_cast<unsigned long long>(report.churn_events),
               static_cast<unsigned long long>(report.reversal_steps));
  write_table_csv(std::cout, table);
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write '%s'\n", json_path.c_str());
      return 1;
    }
    write_table_json(os, table);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // The internal worker entry point dispatches before anything touches
  // stdout: its stdout is the session socket, not a terminal surface.
  // (sweep_worker_main itself rejects invocations that did not come from
  // a sharded sweep, with a readable explanation.)
  if (command == "sweep-worker") return lr::sweep_worker_main(argc, argv);
  // The shard-server daemon owns its own argv/signal handling and ready
  // line; it dispatches outside the generic catch so its exit codes (2 on
  // usage errors, per its own convention) stay under its control.
  if (command == "shard-server") return lr::shard_server_main(argc, argv);
  try {
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "modelcheck") return cmd_modelcheck(argc, argv);
    if (command == "sweep") return cmd_sweep(argc, argv);
    if (command == "snapshot") return cmd_snapshot(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
