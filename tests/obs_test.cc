// Tests for the observability layer: histogram bucket math and percentile
// interpolation, lock-free counters/histograms under contention (the
// ObsConcurrency suite runs under ThreadSanitizer in CI), trace-span
// nesting and ring-wrap semantics, the text/JSON expositions, the
// disabled-registry fast path, and the engine-level metric catalog
// (ServerStats, per-stage histograms, WAL/batch/degradation counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/engine.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// --- histogram bucket math ---------------------------------------------------

TEST(LatencyHistogramBuckets, RoundTripAndAdjacency) {
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const uint64_t lower = LatencyHistogram::BucketLowerNanos(i);
    const uint64_t upper = LatencyHistogram::BucketUpperNanos(i);
    ASSERT_LT(lower, upper) << "bucket " << i;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lower), i);
    EXPECT_EQ(LatencyHistogram::BucketIndex(upper - 1), i);
    if (i + 1 < LatencyHistogram::kBuckets) {
      EXPECT_EQ(upper, LatencyHistogram::BucketLowerNanos(i + 1));
    }
  }
}

TEST(LatencyHistogramBuckets, RelativeWidthAtMost25Percent) {
  for (size_t i = LatencyHistogram::kSub; i < LatencyHistogram::kBuckets;
       ++i) {
    const double lower =
        static_cast<double>(LatencyHistogram::BucketLowerNanos(i));
    const double upper =
        static_cast<double>(LatencyHistogram::BucketUpperNanos(i));
    EXPECT_LE((upper - lower) / lower, 0.25) << "bucket " << i;
  }
}

TEST(LatencyHistogramBuckets, CoverFullPositiveInt64Range) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(INT64_MAX),
            LatencyHistogram::kBuckets - 1);
}

// --- histogram recording and percentiles ------------------------------------

TEST(LatencyHistogram, PercentilesOnUniformDistribution) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.RecordMicros(static_cast<double>(i));
  }
  const LatencyHistogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum_micros, 500500.0);
  EXPECT_DOUBLE_EQ(s.max_micros, 1000.0);
  // True percentiles are 500/950/990 us; buckets are <= 25% wide and the
  // estimate interpolates inside the landing bucket.
  EXPECT_GT(s.p50_micros, 400.0);
  EXPECT_LT(s.p50_micros, 600.0);
  EXPECT_GT(s.p95_micros, 850.0);
  EXPECT_LE(s.p95_micros, 1000.0);
  EXPECT_GT(s.p99_micros, 900.0);
  EXPECT_LE(s.p99_micros, 1000.0);
  EXPECT_LE(s.p50_micros, s.p95_micros);
  EXPECT_LE(s.p95_micros, s.p99_micros);
  EXPECT_LE(s.p99_micros, s.max_micros);
}

TEST(LatencyHistogram, PointMassPercentilesCappedAtObservedMax) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.RecordNanos(1000);
  }
  const LatencyHistogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum_micros, 100.0);
  EXPECT_DOUBLE_EQ(s.max_micros, 1.0);
  // All observations sit in one bucket; interpolation stays inside it and
  // the upper tail is capped at the observed max, never the bucket bound.
  const double lower = static_cast<double>(LatencyHistogram::BucketLowerNanos(
                           LatencyHistogram::BucketIndex(1000))) /
                       1e3;
  EXPECT_GE(s.p50_micros, lower);
  EXPECT_LE(s.p50_micros, 1.0);
  EXPECT_DOUBLE_EQ(s.p99_micros, 1.0);
}

TEST(LatencyHistogram, NegativeDurationsClampToZero) {
  LatencyHistogram h;
  h.RecordNanos(-5);
  const LatencyHistogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.sum_micros, 0.0);
  EXPECT_DOUBLE_EQ(s.max_micros, 0.0);
  EXPECT_DOUBLE_EQ(s.p50_micros, 0.0);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram h;
  const LatencyHistogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum_micros, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_micros, 0.0);
}

// --- concurrency (runs under TSan in the tsan-soak CI job) ------------------

TEST(ObsConcurrency, CountersAreExactUnderContention) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("xvr.test.contended");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ObsConcurrency, HistogramIsExactUnderContentionWithConcurrentReads) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.GetHistogram("xvr.test.latency");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> done{false};
  // A racing reader: snapshots and expositions are allowed to observe
  // mid-flight totals but must be data-race-free and monotone.
  uint64_t max_seen = 0;
  size_t text_bytes = 0;
  std::thread reader([&] {
    do {
      max_seen = std::max(max_seen, h->TakeSnapshot().count);
      text_bytes = registry.TextExposition().size();
    } while (!done.load(std::memory_order_acquire));
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) {
        h->RecordNanos(1000);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  const LatencyHistogram::Snapshot s = h->TakeSnapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum_micros, static_cast<double>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.max_micros, 1.0);
  EXPECT_LE(max_seen, s.count);
  EXPECT_GT(text_bytes, 0u);
}

TEST(ObsConcurrency, RegistrationIsThreadSafeAndStable) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.GetCounter("xvr.test.shared");
      c->Add();
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), static_cast<uint64_t>(kThreads));
}

// --- trace spans -------------------------------------------------------------

TEST(TraceTest, SpansRecordInCompletionOrderWithDepth) {
  Trace trace;
  {
    ScopedSpan outer(&trace, "outer");
    { ScopedSpan inner(&trace, "inner"); }
  }
  ASSERT_EQ(trace.size(), 2u);
  // Children complete (and record) before their parents.
  EXPECT_STREQ(trace.record(0).name, "inner");
  EXPECT_EQ(trace.record(0).depth, 1);
  EXPECT_STREQ(trace.record(1).name, "outer");
  EXPECT_EQ(trace.record(1).depth, 0);
  // The inner interval nests inside the outer one.
  EXPECT_GE(trace.record(0).start_nanos, trace.record(1).start_nanos);
  EXPECT_LE(trace.record(0).duration_nanos, trace.record(1).duration_nanos);
  EXPECT_EQ(trace.open_depth(), 0);
}

TEST(TraceTest, RingWrapKeepsNewestSpans) {
  Trace trace;
  const size_t overflow = Trace::kCapacity + 6;
  for (size_t i = 0; i < overflow; ++i) {
    ScopedSpan span(&trace, i < 6 ? "early" : "late");
  }
  EXPECT_EQ(trace.size(), Trace::kCapacity);
  EXPECT_EQ(trace.total_recorded(), overflow);
  // The six oldest ("early") spans were dropped; only "late" remain.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_STREQ(trace.record(i).name, "late") << i;
  }
}

TEST(TraceTest, StopMicrosIsIdempotent) {
  Trace trace;
  ScopedSpan span(&trace, "x");
  const double first = span.StopMicros();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.StopMicros(), first);
  span.Stop();
  EXPECT_EQ(trace.total_recorded(), 1u);
}

TEST(TraceTest, NullTraceStillMeasures) {
  ScopedSpan span(nullptr, "unattached");
  const int64_t start = MonotonicNanos();
  while (MonotonicNanos() == start) {
    // spin one clock tick so the duration is provably nonzero
  }
  EXPECT_GT(span.StopMicros(), 0.0);
}

TEST(TraceTest, XvrSpanMacroRecords) {
  Trace trace;
  { XVR_SPAN(&trace, "scoped"); }
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_STREQ(trace.record(0).name, "scoped");
}

TEST(TraceTest, ClearResetsRingAndDepth) {
  Trace trace;
  trace.BeginSpan();
  trace.Record("x", 0, 1, 0);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_recorded(), 0u);
  EXPECT_EQ(trace.open_depth(), 0);
}

// --- registry expositions ----------------------------------------------------

TEST(MetricsRegistry, TextExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("xvr.b.count")->Add(3);
  registry.GetCounter("xvr.a.count")->Add(1);
  registry.GetGauge("xvr.views")->Set(-2);
  registry.GetHistogram("xvr.lat")->RecordNanos(1);
  EXPECT_EQ(registry.TextExposition(),
            "counter xvr.a.count 1\n"
            "counter xvr.b.count 3\n"
            "gauge xvr.views -2\n"
            "histogram xvr.lat count=1 sum_us=0.001 max_us=0.001 "
            "p50_us=0.001 p95_us=0.001 p99_us=0.001\n");
}

TEST(MetricsRegistry, JsonExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("xvr.b.count")->Add(3);
  registry.GetCounter("xvr.a.count")->Add(1);
  registry.GetGauge("xvr.views")->Set(-2);
  registry.GetHistogram("xvr.lat")->RecordNanos(1);
  EXPECT_EQ(registry.JsonExposition(),
            "{\"counters\":{\"xvr.a.count\":1,\"xvr.b.count\":3},"
            "\"gauges\":{\"xvr.views\":-2},"
            "\"histograms\":{\"xvr.lat\":{\"count\":1,\"sum_us\":0.001,"
            "\"max_us\":0.001,\"p50_us\":0.001,\"p95_us\":0.001,"
            "\"p99_us\":0.001}}}");
}

TEST(MetricsRegistry, EmptyExpositions) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.TextExposition(), "");
  EXPECT_EQ(registry.JsonExposition(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("a"), registry.GetGauge("a"));
  EXPECT_EQ(registry.GetHistogram("a"), registry.GetHistogram("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

// --- engine metric catalog ---------------------------------------------------

TEST(EngineMetricsTest, RollUpTraceFeedsStageHistograms) {
  MetricsRegistry registry;
  EngineMetrics metrics(&registry);
  Trace trace;
  trace.Record("plan.filter", 0, 5000, 1);
  trace.Record("query", 0, 10000, 0);
  metrics.RollUpTrace(trace);
  ASSERT_NE(metrics.StageHistogram("plan.filter"), nullptr);
  EXPECT_EQ(metrics.StageHistogram("plan.filter"),
            registry.GetHistogram("xvr.stage.plan.filter"));
  EXPECT_EQ(metrics.StageHistogram("plan.filter")->TakeSnapshot().count, 1u);
  // "query" feeds the whole-call latency histogram, not a stage.
  EXPECT_EQ(metrics.query_latency->TakeSnapshot().count, 1u);
  EXPECT_EQ(metrics.StageHistogram("query"), nullptr);
  EXPECT_EQ(metrics.StageHistogram("no.such.stage"), nullptr);
}

// --- engine integration ------------------------------------------------------

XmlTree ObsDoc() {
  auto r = ParseXml(
      "<r>"
      "<s><p/><f/></s>"
      "<s><p/></s>"
      "<s><f/></s>"
      "</r>");
  return std::move(r).value();
}

class EngineObservabilityTest : public ::testing::Test {
 protected:
  EngineObservabilityTest() : engine_(ObsDoc()) {}
  TreePattern Parse(const std::string& xpath) {
    auto r = engine_.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  void AddViews() {
    ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
    ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  }
  Engine engine_;
};

TEST_F(EngineObservabilityTest, ServerStatsCountsQueriesAndFailures) {
  AddViews();
  const TreePattern q = Parse("/r/s[f]/p");
  ASSERT_TRUE(engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_TRUE(engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());
  QueryLimits limits;
  limits.deadline = Deadline::AfterMicros(-1);
  auto failed =
      engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
  ASSERT_FALSE(failed.ok());
  ASSERT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);

  const xvr::ServerStats stats = engine_.ServerStats();
  EXPECT_EQ(stats.queries_total, 3u);
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.queries_deadline_exceeded, 1u);
  EXPECT_EQ(stats.queries_cancelled, 0u);
  // The expired-deadline call failed at the stage boundary, before the
  // cache lookup.
  EXPECT_EQ(stats.plan_cache.lookups, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  // Counter mirror of the cache's own stats.
  EXPECT_EQ(engine_.metrics().GetCounter("xvr.plan_cache.hits")->Value(), 1u);
  // Every call — including the failure — lands in the latency histogram.
  EXPECT_EQ(stats.query_latency.count, 3u);
  EXPECT_GT(stats.query_latency.sum_micros, 0.0);
  // Catalog gauges and churn counters.
  EXPECT_EQ(stats.catalog_publishes, 2u);
  EXPECT_EQ(stats.catalog_views, 2u);
  EXPECT_EQ(stats.catalog_version, engine_.catalog_version());
  EXPECT_EQ(stats.wal_appends, 0u);
}

TEST_F(EngineObservabilityTest, StageHistogramsSeeTheServingPath) {
  AddViews();
  const TreePattern q = Parse("/r/s[f]/p");
  ASSERT_TRUE(engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_TRUE(engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());
  MetricsRegistry& registry = engine_.metrics();
  // Both calls plan (one misses, one hits the cache) and execute.
  EXPECT_EQ(registry.GetHistogram("xvr.stage.plan")->TakeSnapshot().count,
            2u);
  EXPECT_EQ(registry.GetHistogram("xvr.stage.execute")->TakeSnapshot().count,
            2u);
  // Only the miss ran the planner's filter and selection stages.
  EXPECT_EQ(
      registry.GetHistogram("xvr.stage.plan.filter")->TakeSnapshot().count,
      1u);
  EXPECT_EQ(
      registry.GetHistogram("xvr.stage.plan.selection")->TakeSnapshot().count,
      1u);
  // The view path ran the rewriter's phases on both calls.
  EXPECT_EQ(
      registry.GetHistogram("xvr.stage.execute.refine")->TakeSnapshot().count,
      2u);
  EXPECT_EQ(
      registry.GetHistogram("xvr.stage.execute.join")->TakeSnapshot().count,
      2u);
  EXPECT_EQ(registry.GetHistogram("xvr.stage.execute.extract")
                ->TakeSnapshot()
                .count,
            2u);
}

TEST_F(EngineObservabilityTest, DegradedSelectionIsCounted) {
  TreePattern q;
  const std::unique_ptr<Engine> engine = NewOversizedLeafEngine(&q);
  auto answer = engine->AnswerQuery(q, AnswerStrategy::kMinimumFiltered);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->stats.degraded_selection);
  const xvr::ServerStats stats = engine->ServerStats();
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.queries_degraded_selection, 1u);
  EXPECT_EQ(
      engine->metrics().GetCounter("xvr.queries.degraded_selection")->Value(),
      1u);
}

TEST_F(EngineObservabilityTest, BatchRecordsQueueWaitAndQueryCount) {
  AddViews();
  std::vector<TreePattern> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Parse("/r/s[f]/p"));
  }
  auto results = engine_.BatchAnswer(batch, AnswerStrategy::kHeuristicFiltered,
                                     /*num_threads=*/2);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const xvr::ServerStats stats = engine_.ServerStats();
  EXPECT_EQ(stats.batch_queries, 8u);
  EXPECT_EQ(stats.queries_total, 8u);
  EXPECT_EQ(engine_.metrics()
                .GetHistogram("xvr.batch.queue_wait")
                ->TakeSnapshot()
                .count,
            8u);
}

TEST_F(EngineObservabilityTest, WalAppendsAreCounted) {
  const std::string path = TestTempPath("xvr_obs_wal.bin");
  std::remove(path.c_str());
  ASSERT_TRUE(engine_.EnableCatalogWal(path).ok());
  auto id = engine_.AddView(Parse("/r/s/p"));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(engine_.RemoveView(*id).ok());
  EXPECT_EQ(engine_.ServerStats().wal_appends, 2u);
  std::remove(path.c_str());
}

TEST_F(EngineObservabilityTest, StorageCountersTrackDurabilityWork) {
  const std::string wal = TestTempPath("xvr_obs_storage.wal");
  const std::string image = TestTempPath("xvr_obs_storage.img");
  std::remove(wal.c_str());
  std::remove(image.c_str());

  ASSERT_TRUE(engine_.EnableCatalogWal(wal).ok());
  auto id = engine_.AddView(Parse("/r/s/p"));
  ASSERT_TRUE(id.ok()) << id.status();
  // The acked mutation paid at least one fdatasync (the ack contract).
  xvr::ServerStats stats = engine_.ServerStats();
  EXPECT_GE(stats.storage_syncs, 1u);
  EXPECT_EQ(stats.storage_io_errors, 0u);
  EXPECT_EQ(stats.storage_enospc, 0u);

  // A save pays more syncs (temp fsync + directory fsync, twice: image and
  // WAL truncate).
  ASSERT_TRUE(engine_.SaveState(image).ok());
  const uint64_t after_save = engine_.ServerStats().storage_syncs;
  EXPECT_GE(after_save, stats.storage_syncs + 4);

  // ServerStats mirrors the registry counters one for one.
  EXPECT_EQ(after_save,
            engine_.metrics().GetCounter("xvr.storage.syncs")->Value());

  // The whole storage block is in the expositions, including the recovery
  // counters (zero here: nothing was recovered).
  const std::string text = engine_.MetricsText();
  EXPECT_NE(text.find("counter xvr.storage.syncs "), std::string::npos);
  EXPECT_NE(text.find("counter xvr.storage.io_errors 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("counter xvr.storage.enospc 0\n"), std::string::npos);
  EXPECT_NE(text.find("counter xvr.storage.stale_tmp_removed 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("counter xvr.storage.recovery.wal_records_replayed 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("counter xvr.storage.recovery.tail_clipped 0\n"),
            std::string::npos);
  EXPECT_NE(engine_.MetricsJson().find("\"xvr.storage.syncs\":"),
            std::string::npos);

  // A recovery that replays the WAL reports it on the recovered engine.
  std::remove(image.c_str());
  {
    Engine recovered(ObsDoc());
    ASSERT_TRUE(recovered.EnableCatalogWal(wal).ok());
    EXPECT_EQ(recovered.ServerStats().storage_recovery_wal_records_replayed,
              0u);  // the save checkpointed and truncated: nothing to replay
    ASSERT_TRUE(recovered.AddView(Parse("/r/s/f")).ok());
  }
  {
    Engine recovered(ObsDoc());
    ASSERT_TRUE(recovered.EnableCatalogWal(wal).ok());
    EXPECT_EQ(recovered.ServerStats().storage_recovery_wal_records_replayed,
              1u);
    EXPECT_EQ(recovered.num_views(), 1u);
  }
  std::remove(wal.c_str());
}

TEST_F(EngineObservabilityTest, ExpositionsCoverTheMetricCatalog) {
  AddViews();
  ASSERT_TRUE(
      engine_.AnswerQuery(Parse("/r/s[f]/p"), AnswerStrategy::kHeuristicFiltered)
          .ok());
  const std::string text = engine_.MetricsText();
  EXPECT_NE(text.find("counter xvr.queries.total 1\n"), std::string::npos);
  EXPECT_NE(text.find("counter xvr.plan_cache.misses 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("histogram xvr.query.latency count=1 "),
            std::string::npos);
  EXPECT_NE(text.find("gauge xvr.catalog.views 2\n"), std::string::npos);
  const std::string json = engine_.MetricsJson();
  EXPECT_NE(json.find("\"xvr.queries.total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"xvr.query.latency\":{\"count\":1,"),
            std::string::npos);
}

TEST_F(EngineObservabilityTest, ArenaGaugesTrackTheServingPath) {
  AddViews();
  ASSERT_TRUE(
      engine_.AnswerQuery(Parse("/r/s[f]/p"), AnswerStrategy::kHeuristicFiltered)
          .ok());
  const std::string text = engine_.MetricsText();
  EXPECT_NE(text.find("gauge xvr.arena.bytes_allocated "), std::string::npos);
  EXPECT_NE(text.find("gauge xvr.arena.high_water "), std::string::npos);
  const xvr::Gauge* high_water =
      engine_.metrics().GetGauge("xvr.arena.high_water");
  EXPECT_GT(high_water->Value(), 0)
      << "a view-answered query must leave an arena footprint";
  EXPECT_GE(high_water->Value(),
            engine_.metrics().GetGauge("xvr.arena.bytes_allocated")->Value());
  EXPECT_NE(engine_.MetricsJson().find("\"xvr.arena.high_water\":"),
            std::string::npos);
}

}  // namespace
}  // namespace xvr
