/// Experiment E8 — formulation equivalence and the cost of label-free
/// checking:
///  1. The list-based PR automaton, the GB triple-heights automaton, and
///     BLL with the PR labeling produce byte-identical orientations under
///     identical schedules (divergences must be 0).
///  2. Micro-cost of the paper's label-free invariant checks (Inv 4.1/4.2)
///     vs the label-based consistency check (heights_consistent) — the
///     proof-engineering trade-off the paper motivates.
///  3. Ablation: incremental sink tracking (orientation.hpp) vs full scans.

#include <benchmark/benchmark.h>

#include "automata/scheduler.hpp"
#include "core/bll.hpp"
#include "core/gb_heights.hpp"
#include "core/invariants.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "graph/generators.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

void print_equivalence_table() {
  bench::print_header("E8.1: PR vs GB-triples vs BLL(PR labeling), identical schedules",
                      "0 divergences across all sizes and seeds");
  bench::print_row({"n", "seed", "steps", "gb_divergence", "bll_divergence"});
  for (const std::size_t n : {16u, 64u, 256u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      std::mt19937_64 rng(n * 17 + seed);
      const Instance inst = make_random_instance(n, n, rng);
      OneStepPRAutomaton pr(inst);
      GBTripleHeightsAutomaton gb(inst);
      BLLAutomaton bll = BLLAutomaton::pr_labeling(inst);
      RandomScheduler scheduler(seed);
      std::uint64_t steps = 0, gb_div = 0, bll_div = 0;
      while (true) {
        const auto choice = scheduler.choose(pr);
        if (!choice) break;
        pr.apply(*choice);
        gb.apply(*choice);
        bll.apply(*choice);
        if (!(pr.orientation() == gb.orientation())) ++gb_div;
        if (!(pr.orientation() == bll.orientation())) ++bll_div;
        ++steps;
      }
      bench::print_row({std::to_string(n), std::to_string(seed), bench::fmt_u(steps),
                        bench::fmt_u(gb_div), bench::fmt_u(bll_div)});
    }
  }
}

void BM_LabelFreeInvariants(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(4);
  const Instance inst = make_random_instance(n, 2 * n, rng);
  NewPRAutomaton newpr(inst);
  const LeftRightEmbedding emb(newpr.orientation());
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_invariant_4_1(newpr, emb).ok);
    benchmark::DoNotOptimize(check_invariant_4_2(newpr, emb).ok);
  }
}
BENCHMARK(BM_LabelFreeInvariants)->Arg(64)->Arg(512);

void BM_LabelBasedConsistency(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(4);
  const Instance inst = make_random_instance(n, 2 * n, rng);
  const GBTripleHeightsAutomaton gb(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gb.heights_consistent());
  }
}
BENCHMARK(BM_LabelBasedConsistency)->Arg(64)->Arg(512);

void BM_IncrementalSinkTracking(benchmark::State& state) {
  // Ablation: enabled_sinks() with the orientation's incremental sink set.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(5);
  const Instance inst = make_random_instance(n, 2 * n, rng);
  const OneStepPRAutomaton pr(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr.enabled_sinks().size());
  }
}
BENCHMARK(BM_IncrementalSinkTracking)->Arg(256)->Arg(4096);

void BM_FullScanSinkTracking(benchmark::State& state) {
  // Ablation baseline: recompute sinks by scanning every node's incident
  // edges (what the incremental set avoids).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(5);
  const Instance inst = make_random_instance(n, 2 * n, rng);
  const Orientation o = inst.make_orientation();
  for (auto _ : state) {
    std::size_t sinks = 0;
    for (NodeId u = 0; u < o.graph().num_nodes(); ++u) {
      bool sink = true;
      for (const EdgeId e : o.graph().incident_edges(u)) {
        if (o.dir_from(u, e) == Dir::kOut) {
          sink = false;
          break;
        }
      }
      if (sink) ++sinks;
    }
    benchmark::DoNotOptimize(sinks);
  }
}
BENCHMARK(BM_FullScanSinkTracking)->Arg(256)->Arg(4096);

void BM_PRNodeStep(benchmark::State& state) {
  // Throughput of the hot per-node effect on a long chain (re-created per
  // batch to keep a sink available).
  const std::size_t n = 4096;
  const Instance inst = make_worst_case_chain(n);
  for (auto _ : state) {
    state.PauseTiming();
    OneStepPRAutomaton pr(inst);
    LowestIdScheduler scheduler;
    state.ResumeTiming();
    while (const auto choice = scheduler.choose(pr)) pr.apply(*choice);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * (n - 1)));
}
BENCHMARK(BM_PRNodeStep);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  lr::print_equivalence_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
