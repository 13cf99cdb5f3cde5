/// Experiment E9 — the request-serving deployment: per-request latency
/// percentiles and sustained throughput of the three paper applications
/// (routing, mutual exclusion, leader election) served as a live mixed
/// workload under link churn (src/service/service_harness.hpp).
///
/// Expected shape: route and leader lookups are cheap (latency ~ 1 +
/// hops on a stabilized DAG); lock cycles pay the grant's reversal
/// steps on top, so their tail stretches with contention and churn; p99
/// grows with topology diameter.
///
/// E9.1 is the SLO table: the mixed reference workload per topology,
/// reporting p50/p99/p999, mean latency, and wall-clock req/s for each
/// request kind (docs/EXPERIMENTS.md).
///
/// E9.2 is the deployment A/B: the same workloads replayed under the
/// heap and the timing-wheel event scheduler.  The wheel must reproduce
/// the heap's report fingerprint exactly — per-kind histograms,
/// counters, churn and reversal totals — before the req/s figures are
/// trusted; the harness exits non-zero otherwise.  `--smoke` shrinks the
/// series to seconds and skips the google-benchmark micro-timings; CI
/// runs it to keep the A/B equivalence from bit-rotting.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "service/service_harness.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

/// Builds the E9 reference instance for one (topology, size) cell,
/// seeded like the sweep layer so rows are reproducible from the CLI
/// (`lr_cli serve <topology> <n> --seed 1`).
Instance e9_instance(TopologyKind topology, std::size_t size) {
  RunSpec spec;
  spec.topology = topology;
  spec.size = size;
  spec.seed = 1;
  return make_instance(spec);
}

ServiceReport run_service(const Instance& inst, ServiceOptions options) {
  options.seed = 1;
  ServiceHarness harness(inst.graph, inst.destination, options);
  return harness.run();
}

// ---------------------------------------------------------------------------
// E9.1: the per-kind SLO table on the mixed reference workload
// ---------------------------------------------------------------------------

void print_slo_series(bool smoke) {
  bench::print_header("E9.1: service latency SLOs, mixed workload under churn",
                      "route/leader lookups cost ~1+hops; lock cycles add grant "
                      "reversal steps; failures are partition-bounded, never wedged");
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 128};
  Table table;
  table.columns = {"instance", "kind",  "issued", "completed", "failed", "p50",
                   "p99",      "p999",  "mean",   "max",       "req_s"};
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom}) {
    for (const std::size_t n : sizes) {
      const Instance inst = e9_instance(topology, n);
      ServiceOptions options;
      options.clients = smoke ? 8 : 16;
      options.duration = smoke ? 128 : 1024;
      options.churn_interval = 16;
      const ServiceReport report = run_service(inst, options);
      const double req_s = report.requests_per_sec();
      for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
        const ServiceKindStats& stats = report.kinds[kind];
        table.add_row({inst.name, request_kind_token(static_cast<RequestKind>(kind)),
                       bench::fmt_u(stats.issued), bench::fmt_u(stats.completed),
                       bench::fmt_u(stats.failed), bench::fmt_u(stats.histogram.quantile(0.50)),
                       bench::fmt_u(stats.histogram.quantile(0.99)),
                       bench::fmt_u(stats.histogram.quantile(0.999)),
                       bench::fmt(stats.histogram.mean()), bench::fmt_u(stats.histogram.max()),
                       bench::fmt(req_s)});
      }
    }
  }
  bench::emit_csv(table);
}

// ---------------------------------------------------------------------------
// E9.2: the deployment A/B — heap vs timing wheel
// ---------------------------------------------------------------------------

/// Runs E9.2; returns false if the wheel's report fingerprint diverges
/// from the heap baseline.  Throughput is issued requests per
/// wall-clock second of the whole run loop (the figure a service
/// operator would quote; docs/PERFORMANCE.md).
bool print_deployment_ab(bool smoke) {
  bench::print_header("E9.2: service deployment A/B, heap vs wheel",
                      "identical report fingerprints under both schedulers; "
                      "issued requests/sec per deployment (docs/PERFORMANCE.md)");
  const std::size_t n = smoke ? 24 : 96;
  const Instance inst = e9_instance(TopologyKind::kRandom, n);

  struct Deployment {
    const char* label;
    EventSchedulerKind scheduler;
  };
  const Deployment deployments[] = {
      {"heap", EventSchedulerKind::kHeap},
      {"wheel", EventSchedulerKind::kWheel},
  };

  Table table;
  table.columns = {"workload", "deployment", "issued", "p99_all",
                   "req_per_sec", "fingerprint", "identical"};
  bool identical = true;
  for (const ServiceWorkload workload :
       {ServiceWorkload::kMixed, ServiceWorkload::kRoute, ServiceWorkload::kLock}) {
    std::uint64_t reference = 0;
    for (const Deployment& deployment : deployments) {
      ServiceOptions options;
      options.clients = smoke ? 8 : 16;
      options.duration = smoke ? 128 : 1024;
      options.workload = workload;
      options.scheduler = deployment.scheduler;

      const ServiceReport probe = run_service(inst, options);
      const std::uint64_t fingerprint = probe.fingerprint();
      if (deployment.scheduler == EventSchedulerKind::kHeap) reference = fingerprint;
      identical &= fingerprint == reference;

      LatencyHistogram all;
      for (const ServiceKindStats& stats : probe.kinds) all.merge(stats.histogram);

      std::uint64_t issued = 0;
      const double ns_per_run = bench::measure_ns_per_iter(
          [&] {
            const ServiceReport report = run_service(inst, options);
            issued = report.total_issued();
          },
          smoke ? 1 : 5, smoke ? 0.0 : 200.0);
      const double req_per_sec = static_cast<double>(issued) * 1e9 / ns_per_run;
      table.add_row({service_workload_token(workload), deployment.label, bench::fmt_u(issued),
                     bench::fmt_u(all.quantile(0.99)), bench::fmt(req_per_sec),
                     bench::fmt_hex(fingerprint), fingerprint == reference ? "yes" : "NO"});
    }
  }
  bench::emit_csv(table);
  std::printf("report fingerprints: %s\n", identical ? "all identical" : "MISMATCH");
  return identical;
}

void BM_ServiceMixed(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = e9_instance(TopologyKind::kRandom, n);
  ServiceOptions options;
  options.clients = 16;
  options.duration = 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_service(inst, options).total_issued());
  }
}
BENCHMARK(BM_ServiceMixed)->Arg(32)->Arg(128);

void BM_ServiceLockCycle(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Instance inst = e9_instance(TopologyKind::kChain, n);
  ServiceOptions options;
  options.clients = 8;
  options.duration = 256;
  options.workload = ServiceWorkload::kLock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_service(inst, options).total_completed());
  }
}
BENCHMARK(BM_ServiceLockCycle)->Arg(32)->Arg(128);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  lr::print_slo_series(smoke);
  if (!lr::print_deployment_ab(smoke)) {
    std::fprintf(stderr, "E9.2 deployment A/B verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
