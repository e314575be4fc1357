// Batch answering throughput: single-thread vs. multi-thread queries/sec on
// the XMark workload, plus the plan-cache effect on repeated queries.
//
// Unlike the paper-figure benches this one measures the pipeline refactor:
// the whole read path is const, so BatchAnswer fans one shared engine across
// a worker pool, and repeated queries reuse cached plans instead of
// re-running VFILTER + selection.
//
// Output (stdout, one row per configuration):
//   threads=N       queries/sec, speedup vs. 1 thread
//   plan cache      cold vs. warm answering latency, hit ratio
//   metrics overhead  queries/sec with the registry enabled vs. disabled
//   snapshot pin    cost of the per-query atomic catalog acquire
//   catalog churn   queries/sec with a mutator thread adding/removing views
//
// The churn A/B is also written as BENCH_catalog_churn.json (see BenchJson
// in bench_common.h) so CI can diff it against the committed baseline with
// scripts/bench_diff.py — the row asserts throughput under catalog
// mutation recovers to >= 0.9x quiet throughput.
//
// The run ends with the engine's full metric catalog (MetricsText), so a
// bench log doubles as a smoke test of the exposition.
//
// Env knobs: XVR_BENCH_VIEWS (default 1000), XVR_BENCH_SCALE (default 12),
// XVR_BENCH_BATCH (default 512), XVR_BENCH_MAX_THREADS (default 8),
// XVR_BENCH_TRIALS (default 9), XVR_BENCH_JSON_DIR (default .).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/deadline.h"
#include "common/timer.h"
#include "core/planner.h"

namespace {

using xvr::AnswerStrategy;
using xvr::AnswerStrategyName;
using xvr::PlanCache;
using xvr::TreePattern;
using xvr::WallTimer;

struct RunResult {
  double seconds = 0;
  double qps = 0;
};

RunResult RunBatch(const xvr::Engine& engine,
                   const std::vector<TreePattern>& batch,
                   AnswerStrategy strategy, int threads,
                   const xvr::QueryLimits& limits = xvr::QueryLimits()) {
  WallTimer timer;
  auto results = engine.BatchAnswer(batch, strategy, threads, limits);
  RunResult out;
  out.seconds = timer.ElapsedMicros() / 1e6;
  size_t failures = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "warning: %zu/%zu queries failed\n", failures,
                 results.size());
  }
  out.qps = out.seconds > 0 ? static_cast<double>(batch.size()) / out.seconds
                            : 0;
  return out;
}

void ResetCache(const xvr::Engine& engine) {
  if (PlanCache* cache = engine.plan_cache()) {
    cache->Clear();
    cache->ResetStats();
  }
}

}  // namespace

int main() {
  xvr::PaperSetup& setup = xvr_bench::QuerySetup();
  const xvr::Engine& engine = *setup.engine;

  const size_t batch_size = xvr_bench::EnvSize("XVR_BENCH_BATCH", 512);
  const size_t max_threads = std::max<size_t>(
      2, xvr_bench::EnvSize("XVR_BENCH_MAX_THREADS",
                            std::min<size_t>(
                                8, std::thread::hardware_concurrency())));

  // The batch cycles the four Table III queries: a served workload repeats
  // a small set of query shapes, which is exactly what the plan cache and
  // the thread pool are for.
  std::vector<TreePattern> batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    batch.push_back(setup.queries[i % setup.queries.size()]);
  }

  std::printf("bench_batch_throughput: %zu queries (Q1..Q4 cycled), %zu views,"
              " doc %zu nodes\n\n",
              batch.size(), setup.views_materialized,
              engine.doc().size());

  for (AnswerStrategy strategy : {AnswerStrategy::kHeuristicFiltered,
                                  AnswerStrategy::kHeuristicSmallFragments,
                                  AnswerStrategy::kMinimumFiltered}) {
    std::printf("strategy %s\n", AnswerStrategyName(strategy));

    // --- scaling: 1..max threads, cold cache each run -----------------------
    double base_qps = 0;
    for (size_t threads = 1; threads <= max_threads; threads *= 2) {
      ResetCache(engine);
      const RunResult r =
          RunBatch(engine, batch, strategy, static_cast<int>(threads));
      if (threads == 1) {
        base_qps = r.qps;
      }
      std::printf("  threads=%zu  %10.0f queries/sec  (%.2fx vs 1 thread)\n",
                  threads, r.qps, base_qps > 0 ? r.qps / base_qps : 0.0);
    }

    // --- plan cache: cold run then warm run, single thread ------------------
    ResetCache(engine);
    const RunResult cold = RunBatch(engine, batch, strategy, 1);
    const RunResult warm = RunBatch(engine, batch, strategy, 1);
    if (PlanCache* cache = engine.plan_cache()) {
      const PlanCache::Stats stats = cache->stats();
      std::printf(
          "  plan cache: cold %8.0f q/s, warm %8.0f q/s (%.2fx), "
          "hit ratio %.3f (%llu hits / %llu lookups)\n",
          cold.qps, warm.qps, cold.qps > 0 ? warm.qps / cold.qps : 0.0,
          stats.HitRatio(),
          static_cast<unsigned long long>(stats.hits),
          static_cast<unsigned long long>(stats.lookups));
    }
    // --- deadline-check overhead: generous deadline vs. none ----------------
    //
    // A deadline arms every CheckInterrupted / InterruptTicker on the path
    // (strided clock reads in the NFA, selection, refinement and join
    // loops); an infinite deadline short-circuits to one branch. The gap
    // between the two runs is the cost of serving with deadlines on, which
    // the strided tickers are meant to keep under ~2%.
    // Best-of-3 per side, alternating, to shave scheduler noise off a
    // single-digit-percent comparison.
    xvr::QueryLimits limits;
    limits.deadline = xvr::Deadline::AfterMicros(60'000'000);  // never hit
    RunResult unlimited, limited;
    for (int rep = 0; rep < 3; ++rep) {
      ResetCache(engine);
      const RunResult u = RunBatch(engine, batch, strategy, 1);
      unlimited.qps = std::max(unlimited.qps, u.qps);
      ResetCache(engine);
      const RunResult l = RunBatch(engine, batch, strategy, 1, limits);
      limited.qps = std::max(limited.qps, l.qps);
    }
    const double overhead_pct =
        unlimited.qps > 0
            ? (unlimited.qps - limited.qps) / unlimited.qps * 100.0
            : 0.0;
    std::printf(
        "  deadline overhead: none %8.0f q/s, 60s deadline %8.0f q/s "
        "(%+.2f%%)\n",
        unlimited.qps, limited.qps, overhead_pct);
    std::printf("\n");
  }

  // --- metrics overhead: registry enabled vs. disabled ----------------------
  //
  // With the registry enabled every query records a handful of sharded
  // relaxed atomics (counters, the trace roll-up, the latency histogram);
  // disabled, each record is one relaxed load and a branch. The gap is the
  // observability budget, which the sharded cells are meant to keep under
  // ~2%. Best-of-3 per side, alternating, like the deadline rows.
  {
    const AnswerStrategy strategy = AnswerStrategy::kHeuristicFiltered;
    RunResult enabled, disabled;
    for (int rep = 0; rep < 3; ++rep) {
      engine.metrics().SetEnabled(true);
      ResetCache(engine);
      const RunResult on = RunBatch(engine, batch, strategy, 1);
      enabled.qps = std::max(enabled.qps, on.qps);
      engine.metrics().SetEnabled(false);
      ResetCache(engine);
      const RunResult off = RunBatch(engine, batch, strategy, 1);
      disabled.qps = std::max(disabled.qps, off.qps);
    }
    engine.metrics().SetEnabled(true);
    const double overhead_pct =
        disabled.qps > 0
            ? (disabled.qps - enabled.qps) / disabled.qps * 100.0
            : 0.0;
    std::printf(
        "metrics overhead (%s, threads=1): disabled %8.0f q/s, enabled "
        "%8.0f q/s (%+.2f%%)\n\n",
        AnswerStrategyName(strategy), disabled.qps, enabled.qps,
        overhead_pct);
  }

  // --- snapshot pin: the per-query catalog acquire --------------------------
  //
  // Every query starts by pinning the published CatalogSnapshot (a mutex-
  // guarded shared_ptr copy + refcount round trip). This prices the pin on its
  // own, so the qps rows above can be read against a known fixed cost: at
  // tens of nanoseconds per pin and thousands of queries per second, the pin
  // is noise (<0.01% of a query).
  {
    constexpr int kPins = 1'000'000;
    uintptr_t sink = 0;
    WallTimer timer;
    for (int i = 0; i < kPins; ++i) {
      sink += reinterpret_cast<uintptr_t>(engine.Catalog().get());
    }
    const double nanos = timer.ElapsedMicros() * 1e3 / kPins;
    std::printf("snapshot pin: %.1f ns per Catalog() acquire (%d pins%s)\n\n",
                nanos, kPins, sink == 0 ? ", null!" : "");
  }

  // --- catalog churn: full batch throughput under live mutation -------------
  //
  // A mutator thread adds and retires views (full materialization each add)
  // while the worker pool answers the same batch. Readers stay lock-free —
  // each query pins one snapshot — and the publish sweep invalidates only
  // the cached plans that actually depend on each delta, so a warm cache is
  // expected to stay warm: churn throughput should recover to near-quiet
  // levels (CI asserts churn_vs_quiet >= 0.9 against the committed
  // baseline). Fixed work, interleaved trials — the churn side spawns its
  // mutator per trial so both sides see the same warm-cache start.
  {
    xvr::Engine& mutable_engine = *setup.engine;
    const AnswerStrategy strategy = AnswerStrategy::kHeuristicFiltered;
    const int threads = static_cast<int>(max_threads);
    const size_t trials = xvr_bench::EnvSize("XVR_BENCH_TRIALS", 9);
    const uint64_t version_before = engine.catalog_version();
    std::atomic<uint64_t> mutations{0};

    // Both sides run against a warm cache; what A measures is the cost of
    // live publications (targeted invalidation + replans), not a cold start.
    ResetCache(engine);
    RunBatch(engine, batch, strategy, threads);

    // Each timed run repeats the batch so a single mutation amortizes over
    // steady-state serving instead of dominating one short batch.
    constexpr int kRepeats = 8;
    const auto run_batches = [&] {
      double seconds = 0;
      for (int rep = 0; rep < kRepeats; ++rep) {
        seconds += RunBatch(engine, batch, strategy, threads).seconds;
      }
      return seconds;
    };
    const auto run_quiet = run_batches;
    // Pacing: catalog churn is periodic view maintenance, not a tight
    // mutation storm — an unpaced loop would measure the mutator's
    // materialization CPU (it saturates a core), not the cache's behavior
    // under publications. XVR_BENCH_CHURN_INTERVAL_MS=0 restores the storm.
    const size_t churn_interval_ms =
        xvr_bench::EnvSize("XVR_BENCH_CHURN_INTERVAL_MS", 25);
    const auto run_churn = [&] {
      std::atomic<bool> stop{false};
      std::thread mutator([&] {
        const char* kChurn[] = {
            "/site/people/person/name",
            "/site/regions//item[location]/name",
            "/site/open_auctions/open_auction[bidder]/initial",
        };
        std::vector<int32_t> live;
        size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          auto pattern = mutable_engine.Parse(kChurn[i++ % 3]);
          if (!pattern.ok()) {
            continue;
          }
          auto id = mutable_engine.AddView(std::move(pattern).value());
          if (id.ok()) {
            live.push_back(*id);
          }
          if (live.size() > 4) {
            if (!mutable_engine.RemoveView(live.front()).ok()) {
              break;
            }
            live.erase(live.begin());
          }
          mutations.fetch_add(1, std::memory_order_relaxed);
          for (size_t slept = 0; slept < churn_interval_ms &&
                                 !stop.load(std::memory_order_relaxed);
               ++slept) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        for (int32_t id : live) {
          if (!mutable_engine.RemoveView(id).ok()) {
            break;
          }
        }
      });
      const double seconds = run_batches();
      stop.store(true, std::memory_order_relaxed);
      mutator.join();
      return seconds;
    };
    const xvr_bench::ABComparison ab = xvr_bench::RunInterleavedAB(
        trials, static_cast<double>(batch.size() * kRepeats), run_churn,
        run_quiet);
    const uint64_t published = engine.catalog_version() - version_before;
    std::printf(
        "catalog churn (%s, threads=%d, %zu interleaved trials/side):\n"
        "  churn %8.0f q/s [%8.0f, %8.0f]  quiet %8.0f q/s [%8.0f, %8.0f]  "
        "ratio %.2fx [%.2fx, %.2fx]%s\n"
        "  %llu mutations, %llu snapshots published\n",
        AnswerStrategyName(strategy), threads, trials, ab.a.median, ab.a.q25,
        ab.a.q75, ab.b.median, ab.b.q25, ab.b.q75, ab.speedup.median,
        ab.speedup.q25, ab.speedup.q75,
        ab.NonOverlappingIqr() ? "  (IQRs separated)" : "  (IQRs OVERLAP)",
        static_cast<unsigned long long>(mutations.load()),
        static_cast<unsigned long long>(published));
    if (PlanCache* cache = engine.plan_cache()) {
      const PlanCache::Stats stats = cache->stats();
      std::printf(
          "  plan cache over the run: %llu dep + %llu fingerprint "
          "invalidations, %llu survived publications, %llu stale drops\n",
          static_cast<unsigned long long>(stats.dep_invalidations),
          static_cast<unsigned long long>(stats.fingerprint_invalidations),
          static_cast<unsigned long long>(stats.survived_publications),
          static_cast<unsigned long long>(stats.stale_drops));
    }
    xvr_bench::BenchJson json("catalog_churn");
    json.AddAB("churn_vs_quiet", "churn", "quiet", "queries/sec", ab);
    const std::string path = json.Write();
    std::printf("  wrote %s\n",
                path.empty() ? "(json write failed)" : path.c_str());
  }

  // --- the full metric catalog after the whole run --------------------------
  std::printf("\nmetrics:\n%s", engine.MetricsText().c_str());
  return 0;
}
