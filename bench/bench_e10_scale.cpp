/// \file bench_e10_scale.cpp
/// E10: the million-node CSR core — streaming construction, mmap-backed
/// snapshots, and churn at scale (docs/EXPERIMENTS.md §E10).
///
/// The paper's target regime is large mobile ad-hoc networks under
/// sustained link churn; this harness measures the three mechanisms that
/// carry the repo from 4k-node instances to 10^6+:
///
///  E10.1  Streaming CSR construction: `CsrBuilder` (two counting passes
///         over a canonical edge stream, two allocations) vs the batch
///         `Graph` -> `CsrGraph` conversion, fingerprint-verified
///         byte-identical.  The torus row also streams straight off the
///         generator with *no Graph at all* — the zero-intermediate path.
///  E10.2  mmap snapshot reload vs regeneration: `save_snapshot` once,
///         then `Snapshot::load` (+ `thaw_instance`, the SweepCache
///         production path) against regenerating the instance from
///         (topology, size, seed).  Full mode asserts the >= 10x reload
///         speedup at the largest size; every mode asserts fingerprint
///         equality.
///  E10.3  Churn at scale: the random-waypoint schedule replayed through
///         the `DynamicHeightsDag` steady state (add/remove + stabilize
///         per event) at 2·10^4 and 10^5 nodes, in events/sec —
///         self-verified by the counters (no rebuild, one patch per
///         event) and by the healing suffix restoring the initial links.
///  E10.4  Deployment identity: the same sweeps byte-identical in-process,
///         with a cold snapshot dir (saves), a warm one (mmap reloads,
///         i.e. borrowed CsrGraphs), and at 2 / 4 worker processes
///         sharing the snapshot dir — the merge contract of
///         runner/process_runner.hpp extended to the mmap path.
///
/// Like every harness: verification gates first (the binary exits
/// non-zero on any mismatch), timings second.  `--smoke` runs the full
/// gate battery at small sizes for CI (under an RSS ulimit, so a memory
/// regression at scale fails loudly).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "routing/dynamic_heights.hpp"
#include "runner/process_runner.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"

namespace lr {
namespace {

/// A disposable directory for snapshot files; removed (with contents)
/// on destruction so repeated bench runs never read stale snapshots.
struct TempDir {
  std::string path;

  TempDir() {
    char buffer[] = "/tmp/lr_e10_XXXXXX";
    if (::mkdtemp(buffer) == nullptr) {
      std::perror("bench_e10: mkdtemp");
      std::exit(1);
    }
    path = buffer;
  }
  ~TempDir() {
    // Best-effort cleanup: snapshots are regenerable cache artifacts.
    const std::string command = "rm -rf '" + path + "'";
    if (std::system(command.c_str()) != 0) {
      std::fprintf(stderr, "bench_e10: failed to remove %s\n", path.c_str());
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

std::size_t torus_side_for(std::size_t n) {
  std::size_t side = 3;
  while ((side + 1) * (side + 1) <= n) ++side;
  return side;
}

// ---------------------------------------------------------------------------
// E10.1: streaming CsrBuilder vs batch Graph -> CsrGraph conversion
// ---------------------------------------------------------------------------

/// E10.1 driver; returns false when any streamed snapshot's fingerprint
/// diverges from the batch conversion's.
bool print_build_series(bool smoke) {
  bench::print_header(
      "E10.1: CSR construction, batch conversion vs streaming CsrBuilder",
      "byte-identical snapshots (FNV fingerprints); streaming needs no "
      "intermediate per-node state (docs/PERFORMANCE.md records the table)");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16'384}
            : std::vector<std::size_t>{100'000, 1'000'000};
  const double min_ms = smoke ? 0.0 : 200.0;
  const std::uint64_t min_iters = smoke ? 1 : 3;

  Table table;
  table.columns = {"topology",  "n",         "m",        "batch_ns",
                   "stream_ns", "stream_speedup", "medges_per_sec", "identical"};
  bool identical = true;

  const auto add_row = [&](const std::string& topology, std::size_t n, std::size_t m,
                           double batch_ns, double stream_ns, bool same) {
    identical &= same;
    const double medges = stream_ns > 0.0 ? static_cast<double>(m) * 1e3 / stream_ns : 0.0;
    table.add_row({topology, bench::fmt_u(n), bench::fmt_u(m), bench::fmt(batch_ns),
                   bench::fmt(stream_ns), bench::fmt(batch_ns / stream_ns),
                   bench::fmt(medges), same ? "yes" : "NO"});
  };

  for (const std::size_t size : sizes) {
    // Torus: the generator streams canonically sorted edges, so the
    // builder can run with no materialized Graph (and no edge vector) at
    // all — generation itself is replayed for each of the two passes,
    // which is the honest end-to-end cost of the zero-intermediate path.
    {
      const std::size_t side = torus_side_for(size);
      const Graph g = make_torus_graph(side, side);
      const CsrGraph batch(g);
      const double batch_ns = bench::measure_ns_per_iter(
          [&] { benchmark::DoNotOptimize(CsrGraph(g).num_edges()); }, min_iters, min_ms);
      CsrGraph streamed;
      const auto stream_build = [&] {
        CsrBuilder builder(g.num_nodes());
        stream_torus_edges(side, side, [&builder](NodeId u, NodeId v) {
          builder.count_edge(u, v);
        });
        builder.begin_placement();
        stream_torus_edges(side, side, [&builder](NodeId u, NodeId v) {
          builder.place_edge(u, v);
        });
        streamed = builder.finish();
      };
      const double stream_ns = bench::measure_ns_per_iter(stream_build, min_iters, min_ms);
      add_row("torus-" + std::to_string(side) + "x" + std::to_string(side), g.num_nodes(),
              g.num_edges(), batch_ns, stream_ns,
              streamed.fingerprint() == batch.fingerprint());
    }
    // Wide random graph: both paths consume the same canonical edge list
    // (generation is identical work either way and stays outside the
    // timer), so the row isolates pure conversion cost.
    {
      std::mt19937_64 rng(71);
      const Graph g = make_wide_random_graph(size, 8.0, rng);
      const CsrGraph batch(g);
      const double batch_ns = bench::measure_ns_per_iter(
          [&] { benchmark::DoNotOptimize(CsrGraph(g).num_edges()); }, min_iters, min_ms);
      CsrGraph streamed;
      const auto stream_build = [&] {
        CsrBuilder builder(g.num_nodes());
        for (const auto& [u, v] : g.edges()) builder.count_edge(u, v);
        builder.begin_placement();
        for (const auto& [u, v] : g.edges()) builder.place_edge(u, v);
        streamed = builder.finish();
      };
      const double stream_ns = bench::measure_ns_per_iter(stream_build, min_iters, min_ms);
      add_row("widerandom-" + std::to_string(size), g.num_nodes(), g.num_edges(), batch_ns,
              stream_ns, streamed.fingerprint() == batch.fingerprint());
    }
  }
  bench::emit_csv(table);
  std::printf("batch vs streamed fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

// ---------------------------------------------------------------------------
// E10.2: mmap snapshot reload vs regeneration
// ---------------------------------------------------------------------------

/// E10.2 driver; returns false on fingerprint divergence, or (full mode
/// only) when the mmap reload path fails the >= 10x speedup bar at the
/// largest size.
bool print_snapshot_series(bool smoke) {
  bench::print_header(
      "E10.2: frozen-instance snapshots, mmap reload vs regeneration",
      "checksummed zero-fixup reload; >= 10x faster than regenerating at "
      "scale (full mode asserts it at the largest size)");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16'384}
            : std::vector<std::size_t>{100'000, 1'000'000};
  const double min_ms = smoke ? 0.0 : 200.0;
  const std::uint64_t min_iters = smoke ? 1 : 3;
  const TempDir dir;

  Table table;
  table.columns = {"topology", "n",       "m",          "file_mb",   "regen_ns",
                   "load_ns",  "thaw_ns", "reload_speedup", "identical"};
  bool identical = true;
  double last_speedup = 0.0;

  for (const std::size_t size : sizes) {
    for (const TopologyKind topology : {TopologyKind::kTorus, TopologyKind::kWideRandom}) {
      RunSpec spec;
      spec.topology = topology;
      spec.size = size;
      spec.seed = 7;
      // Regeneration is exactly what a SweepCache miss without a snapshot
      // dir pays: instance construction plus the CSR freeze.
      const auto regenerate = [&spec] {
        const Instance instance = make_instance(spec);
        return CsrGraph(instance.graph, instance.senses);
      };
      const Instance instance = make_instance(spec);
      const CsrGraph csr(instance.graph, instance.senses);
      const std::string path =
          dir.path + "/" + topology_token(topology) + "-" + std::to_string(size) + ".lrsnap";
      save_snapshot(path, instance, csr);

      const double regen_ns = bench::measure_ns_per_iter(
          [&] { benchmark::DoNotOptimize(regenerate().num_edges()); }, min_iters, min_ms);
      // Load = mmap + validation (checksum included: the production
      // default).  Thaw adds the one O(m) step that rebuilds the Graph
      // front-end — together they are the SweepCache reload path.
      const double load_ns = bench::measure_ns_per_iter(
          [&] { benchmark::DoNotOptimize(Snapshot::load(path).num_edges()); }, min_iters,
          min_ms);
      const double thaw_ns = bench::measure_ns_per_iter(
          [&] {
            const Snapshot snapshot = Snapshot::load(path);
            benchmark::DoNotOptimize(snapshot.thaw_instance().graph.num_edges());
          },
          min_iters, min_ms);

      const Snapshot loaded = Snapshot::load(path);
      const bool same = loaded.csr().fingerprint() == csr.fingerprint() &&
                        loaded.destination() == instance.destination &&
                        loaded.name() == instance.name;
      identical &= same;
      last_speedup = thaw_ns > 0.0 ? regen_ns / thaw_ns : 0.0;
      table.add_row({topology_token(topology), bench::fmt_u(csr.num_nodes()),
                     bench::fmt_u(csr.num_edges()),
                     bench::fmt(static_cast<double>(loaded.file_bytes()) / (1024.0 * 1024.0)),
                     bench::fmt(regen_ns), bench::fmt(load_ns), bench::fmt(thaw_ns),
                     bench::fmt(last_speedup), same ? "yes" : "NO"});
    }
  }
  bench::emit_csv(table);
  std::printf("reloaded vs regenerated fingerprints: %s\n",
              identical ? "all identical" : "MISMATCH");
  if (!smoke && last_speedup < 10.0) {
    std::printf("reload speedup %.1fx at the largest size is below the 10x bar\n", last_speedup);
    return false;
  }
  return identical;
}

// ---------------------------------------------------------------------------
// E10.3: churn at scale — the dynamic-heights steady state
// ---------------------------------------------------------------------------

/// E10.3 driver; returns false when the heights core rebuilt its
/// adjacency, miscounted an effective event, or did not return to the
/// initial link set after the healing suffix.
bool print_churn_series(bool smoke) {
  bench::print_header(
      "E10.3: random-waypoint churn through the dynamic-heights core",
      "add_link/remove_link + stabilize per event, events/sec; the cost per event "
      "follows the touched degree and reversal steps, not n");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{2'048} : std::vector<std::size_t>{20'000, 100'000};
  Table table;
  table.columns = {"n",         "m",        "events",           "ns_per_event", "events_per_sec",
                   "reversals", "visits_per_event", "rebuild_free", "restored"};
  bool ok = true;
  for (const std::size_t size : sizes) {
    std::mt19937_64 rng(94);
    const double radius = std::sqrt(6.0 / static_cast<double>(size));
    const ChurnInstance churn =
        make_waypoint_churn_instance(size, radius, smoke ? 1'000 : 100'000, rng);
    const Graph& graph = churn.instance.graph;
    DynamicHeightsDag dag(graph, churn.instance.destination);
    dag.stabilize();
    const std::uint64_t warm_patches = dag.snapshot_patches();
    const std::uint64_t warm_reversals = dag.total_reversals();
    const std::uint64_t warm_visits = dag.maintenance_visits();
    const auto start = std::chrono::steady_clock::now();
    for (const LinkEvent& event : churn.churn) {
      if (event.up) {
        dag.add_link(event.u, event.v);
      } else {
        dag.remove_link(event.u, event.v);
      }
      dag.stabilize();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
            .count();
    // Every waypoint event flips a link, so each one is an effective patch.
    const bool rebuild_free = dag.snapshot_rebuilds() == 1 &&
                              dag.snapshot_patches() - warm_patches == churn.churn.size();
    // The healing suffix restores the initial topology exactly.
    std::size_t degree_sum = 0;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) degree_sum += dag.neighbors(u).size();
    bool restored = degree_sum == 2 * graph.num_edges();
    for (const auto& [u, v] : graph.edges()) restored = restored && dag.has_link(u, v);
    ok &= rebuild_free && restored;

    const double events = static_cast<double>(churn.churn.size());
    table.add_row({bench::fmt_u(size), bench::fmt_u(graph.num_edges()),
                   bench::fmt_u(churn.churn.size()), bench::fmt(ns / events),
                   bench::fmt(ns > 0.0 ? events * 1e9 / ns : 0.0),
                   bench::fmt_u(dag.total_reversals() - warm_reversals),
                   bench::fmt(static_cast<double>(dag.maintenance_visits() - warm_visits) / events),
                   rebuild_free ? "yes" : "NO", restored ? "yes" : "NO"});
  }
  bench::emit_csv(table);
  return ok;
}

// ---------------------------------------------------------------------------
// E10.4: deployment identity — snapshot dirs and worker processes
// ---------------------------------------------------------------------------

/// E10.4 driver; returns false when any deployment's table fingerprint
/// diverges from the in-process baseline.
bool print_deployment_series(bool smoke) {
  bench::print_header(
      "E10.4: deployment identity across snapshot modes and worker counts",
      "byte-identical sweep tables in-process, via cold/warm snapshot dirs "
      "(owning vs mmap-borrowed instances), and at 2/4 worker processes");

  const auto fingerprint_of = [](const SweepReport& report) {
    return bench::fnv1a(bench::sweep_report_csv(report));
  };

  Table table;
  table.columns = {"sweep", "deployment", "runs", "snapshot_loads", "fingerprint", "identical"};
  bool identical = true;

  // Sweep A (static topologies, churn-free): exactly the workloads the
  // snapshot-dir fast path covers, so the warm rerun must hit mmap
  // reloads for every workload.  Sweep B (waypoint + churn axis): churn
  // workloads bypass snapshot files by design; what must hold is table
  // identity across process counts with the schedule re-derived per
  // worker from (topology, size, seed, churn_events).
  SweepSpec static_sweep;
  static_sweep.topologies = {TopologyKind::kTorus, TopologyKind::kWideRandom};
  static_sweep.sizes = smoke ? std::vector<std::size_t>{256}
                             : std::vector<std::size_t>{256, 1'024};
  static_sweep.algorithms = {AlgorithmKind::kOneStepPR, AlgorithmKind::kTora};
  static_sweep.schedulers = {SchedulerKind::kLowestId};
  static_sweep.seeds = {1, 2};

  SweepSpec churn_sweep = static_sweep;
  churn_sweep.topologies = {TopologyKind::kWaypoint};
  churn_sweep.algorithms = {AlgorithmKind::kTora};
  churn_sweep.churn_events = smoke ? 100 : 400;

  for (const auto& [name, sweep] :
       {std::pair<const char*, const SweepSpec&>{"static", static_sweep},
        std::pair<const char*, const SweepSpec&>{"churn", churn_sweep}}) {
    const TempDir dir;
    std::uint64_t reference = 0;
    const auto add_row = [&](const std::string& label, std::uint64_t fingerprint,
                             std::uint64_t loads) {
      if (reference == 0) reference = fingerprint;
      identical &= fingerprint == reference;
      table.add_row({name, label, bench::fmt_u(sweep.run_count()), bench::fmt_u(loads),
                     bench::fmt_hex(fingerprint), fingerprint == reference ? "yes" : "NO"});
    };

    {
      const ScenarioRunner runner({.threads = 1});
      add_row("in-process", fingerprint_of(runner.run(sweep)), 0);
    }
    {
      // Cold: misses generate and save; warm: every churn-free workload
      // must come back as an mmap reload (a borrowed CsrGraph).
      const ScenarioRunner runner({.threads = 1, .snapshot_dir = dir.path});
      const SweepReport cold = runner.run(sweep);
      add_row("snapshot-dir cold", fingerprint_of(cold), cold.cache.snapshot_loads);
      const SweepReport warm = runner.run(sweep);
      add_row("snapshot-dir warm", fingerprint_of(warm), warm.cache.snapshot_loads);
      if (std::string(name) == "static" && warm.cache.snapshot_loads != warm.cache.misses) {
        std::printf("static warm rerun expected every miss to mmap-reload (%llu loads, "
                    "%llu misses)\n",
                    static_cast<unsigned long long>(warm.cache.snapshot_loads),
                    static_cast<unsigned long long>(warm.cache.misses));
        identical = false;
      }
    }
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
      ProcessShardRunner runner(
          {.threads = 1, .process_workers = workers, .snapshot_dir = dir.path});
      add_row("processes n=" + std::to_string(workers), fingerprint_of(runner.run(sweep)), 0);
    }
  }
  bench::emit_csv(table);
  std::printf("deployment fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

// ---------------------------------------------------------------------------
// Micro-benchmarks (full mode only, via google-benchmark)
// ---------------------------------------------------------------------------

void BM_StreamTorusBuild(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    CsrBuilder builder(side * side);
    stream_torus_edges(side, side,
                       [&builder](NodeId u, NodeId v) { builder.count_edge(u, v); });
    builder.begin_placement();
    stream_torus_edges(side, side,
                       [&builder](NodeId u, NodeId v) { builder.place_edge(u, v); });
    benchmark::DoNotOptimize(builder.finish().num_edges());
  }
}
BENCHMARK(BM_StreamTorusBuild)->Arg(64)->Arg(256);

void BM_SnapshotLoad(benchmark::State& state) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(5);
  const Instance instance = make_torus_instance(side, side, rng);
  const CsrGraph csr(instance.graph, instance.senses);
  const TempDir dir;
  const std::string path = dir.path + "/bm.lrsnap";
  save_snapshot(path, instance, csr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Snapshot::load(path).num_edges());
  }
}
BENCHMARK(BM_SnapshotLoad)->Arg(64)->Arg(256);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  // Self-hosting sweep worker for the E10.4 deployment A/B: the
  // ProcessShardRunner fork/execs this very binary (/proc/self/exe).
  if (argc > 1 && std::string(argv[1]) == "sweep-worker") {
    return lr::sweep_worker_main(argc, argv);
  }
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  bool ok = true;
  if (!lr::print_build_series(smoke)) {
    std::fprintf(stderr, "E10.1 build verification FAILED\n");
    ok = false;
  }
  if (!lr::print_snapshot_series(smoke)) {
    std::fprintf(stderr, "E10.2 snapshot verification FAILED\n");
    ok = false;
  }
  if (!lr::print_churn_series(smoke)) {
    std::fprintf(stderr, "E10.3 churn verification FAILED\n");
    ok = false;
  }
  if (!lr::print_deployment_series(smoke)) {
    std::fprintf(stderr, "E10.4 deployment verification FAILED\n");
    ok = false;
  }
  if (!ok) return 1;
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
