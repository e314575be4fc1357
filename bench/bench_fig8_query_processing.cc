// Figure 8: query processing time of the five approaches on Q1..Q4
// (log-scale in the paper). BN: base data + node index; BF: base data +
// full path index; MN: minimum view set without VFILTER; MV: minimum view
// set over VFILTER candidates; HV: heuristic selection over VFILTER.
//
// Expected shape (paper): BN slowest by far; MN slower than BF (it pays a
// homomorphism for every one of the 1000 views); MV and HV fastest, with
// HV <= MV (smaller fragments win).
//
// BM_Fig8 answers from one engine whose plan cache serves every iteration
// after the first, so its view rows time execution only. BM_Fig8Cold
// answers the view strategies from a second engine with the plan cache off
// (plan_cache_capacity = 0): every call pays lookup plus execution, the
// paper's semantics. Before timing, every row checks its answer against
// BN's and fails on any difference.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"

namespace {

// The paper's five approaches.
constexpr xvr::AnswerStrategy kStrategies[] = {
    xvr::AnswerStrategy::kBaseNodeIndex,
    xvr::AnswerStrategy::kBaseFullIndex,
    xvr::AnswerStrategy::kMinimumNoFilter,
    xvr::AnswerStrategy::kMinimumFiltered,
    xvr::AnswerStrategy::kHeuristicFiltered,
};

void ReportIndexSizes() {
  static bool done = false;
  if (done) return;
  done = true;
  xvr::PaperSetup& setup = xvr_bench::QuerySetup();
  const auto& base = setup.engine->base();
  std::printf("\n=== Fig. 8 setup: document %zu nodes; node index %zu KB, "
              "full index %zu KB, fragments %zu KB ===\n\n",
              setup.engine->doc().size(),
              base.node_index().ByteSize() / 1024,
              base.path_index().ByteSize() / 1024,
              setup.engine->fragments().TotalByteSize() / 1024);
}

xvr::PaperSetup& ColdSetup() {
  static xvr::PaperSetup* setup = [] {
    xvr::EngineOptions options;
    options.plan_cache_capacity = 0;
    return xvr_bench::NewQuerySetup(options);
  }();
  return *setup;
}

void TimeAnswers(benchmark::State& state, xvr::PaperSetup& setup,
                 const char* suffix) {
  const size_t qi = static_cast<size_t>(state.range(0));
  const xvr::AnswerStrategy strategy =
      kStrategies[static_cast<size_t>(state.range(1))];
  state.SetLabel(setup.query_names[qi] + "/" +
                 xvr::AnswerStrategyName(strategy) + suffix);
  const auto expected = setup.engine->AnswerQuery(
      setup.queries[qi], xvr::AnswerStrategy::kBaseNodeIndex);
  const auto checked = setup.engine->AnswerQuery(setup.queries[qi], strategy);
  if (!expected.ok() || !checked.ok()) {
    state.SkipWithError(
        (expected.ok() ? checked : expected).status().ToString().c_str());
    return;
  }
  if (checked->codes != expected->codes) {
    state.SkipWithError("answer differs from BN's");
    return;
  }
  size_t results = 0;
  for (auto _ : state) {
    auto answer = setup.engine->AnswerQuery(setup.queries[qi], strategy);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      return;
    }
    results = answer->codes.size();
    benchmark::DoNotOptimize(answer->codes);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_Fig8(benchmark::State& state) {
  ReportIndexSizes();
  TimeAnswers(state, xvr_bench::QuerySetup(), "");
}
BENCHMARK(BM_Fig8)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_Fig8Cold(benchmark::State& state) {
  TimeAnswers(state, ColdSetup(), " cold");
}
BENCHMARK(BM_Fig8Cold)
    ->ArgsProduct({{0, 1, 2, 3}, {2, 3, 4}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
