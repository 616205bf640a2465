// Ablation for the §3.5 engineering claim: "having [the decomposition]
// first try to identify a bipartite subgraph ... reduced the time to
// decompose the SDSS dag with 48,013 jobs from over 2 days to a few
// minutes."
//
// We compare decompose() with and without the bipartite fast path on
// scaled SDSS- and Montage-shaped dags (the slow path is exercised at
// sizes where it still terminates quickly enough to benchmark), plus
// shortcut removal on paper-shaped and dense random dags.
#include <benchmark/benchmark.h>

#include "core/decompose.h"
#include "dag/algorithms.h"
#include "stats/rng.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using prio::core::decompose;
using prio::core::DecomposeOptions;

prio::dag::Digraph sdssScaled(std::size_t fields) {
  return prio::workloads::makeSdss({fields, 6, 3, 20});
}

void BM_DecomposeSdss_FastPath(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  DecomposeOptions opt;
  opt.bipartite_fast_path = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeSdss_FastPath)->Arg(25)->Arg(50)->Arg(100);

void BM_DecomposeSdss_GeneralOnly(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  DecomposeOptions opt;
  opt.bipartite_fast_path = false;  // every component via general search
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeSdss_GeneralOnly)->Arg(25)->Arg(50)->Arg(100);

void BM_DecomposeMontage_FastPath(benchmark::State& state) {
  const auto g = prio::workloads::makeMontage(
      {static_cast<std::size_t>(state.range(0)), 10, 5});
  DecomposeOptions opt;
  opt.bipartite_fast_path = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeMontage_FastPath)->Arg(4)->Arg(8);

void BM_DecomposeMontage_GeneralOnly(benchmark::State& state) {
  const auto g = prio::workloads::makeMontage(
      {static_cast<std::size_t>(state.range(0)), 10, 5});
  DecomposeOptions opt;
  opt.bipartite_fast_path = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompose(g, opt));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_DecomposeMontage_GeneralOnly)->Arg(4)->Arg(8);

// Shortcut removal (step 1's cost) on the families that bound it: the
// paper-shaped SDSS, where few nodes are joins, and the worst cases for
// join-column reachability, dense Erdős–Rényi and dense layered dags,
// where nearly every node is a join.
void BM_ReduceSdss(benchmark::State& state) {
  const auto g = sdssScaled(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(transitiveReduction(g));
  }
  state.SetLabel(std::to_string(g.numNodes()) + " jobs");
}
BENCHMARK(BM_ReduceSdss)->Arg(50)->Arg(200)->Arg(1700);

// randomDag(n, p): args are n and p in thousandths.
void BM_ReduceRandomDag(benchmark::State& state) {
  prio::stats::Rng rng(7);
  const auto g = prio::workloads::randomDag(
      static_cast<std::size_t>(state.range(0)),
      static_cast<double>(state.range(1)) / 1000.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transitiveReduction(g));
  }
  state.SetLabel(std::to_string(g.numEdges()) + " arcs");
}
BENCHMARK(BM_ReduceRandomDag)
    ->Args({1000, 10})
    ->Args({5000, 2})
    ->Args({2000, 200});

// layeredRandom(layers, width, p): args are layers, width and p in
// thousandths.
void BM_ReduceLayeredDense(benchmark::State& state) {
  prio::stats::Rng rng(11);
  const auto g = prio::workloads::layeredRandom(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<double>(state.range(2)) / 1000.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transitiveReduction(g));
  }
  state.SetLabel(std::to_string(g.numEdges()) + " arcs");
}
BENCHMARK(BM_ReduceLayeredDense)
    ->Args({20, 100, 300})
    ->Args({50, 200, 100});

}  // namespace

BENCHMARK_MAIN();
