// Figure 11: size of VFILTER (states + transitions + accept entries of its
// automaton) as the number of indexed views grows from 1000 (V1) to 8000
// (V8), reported as the scaling factor S_i / S_1 against the linear
// baseline i. The paper observes strongly sub-linear growth (S8/S1 ≈ 3.09)
// thanks to shared path prefixes.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace {

size_t FilterSize(size_t num_views) {
  return xvr_bench::BuildFilter(num_views)->automaton_size();
}

size_t S1Size() {
  static const size_t s1 = FilterSize(1000);
  return s1;
}

void BM_Fig11_VFilterSize(benchmark::State& state) {
  const size_t i = static_cast<size_t>(state.range(0));
  size_t size = 0;
  for (auto _ : state) {
    size = FilterSize(i * 1000);
  }
  std::string label("V");
  label += std::to_string(i);
  state.SetLabel(label);
  state.counters["size"] = static_cast<double>(size);
  state.counters["scaling_Si_over_S1"] =
      static_cast<double>(size) / static_cast<double>(S1Size());
  state.counters["linear_baseline"] = static_cast<double>(i);
}
BENCHMARK(BM_Fig11_VFilterSize)
    ->DenseRange(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
