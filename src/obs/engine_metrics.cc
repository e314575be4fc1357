#include "obs/engine_metrics.h"

#include <cstring>
#include <string>

namespace xvr {

namespace {

// The span names the serving path emits, in rough hot-path order. The
// whole-call "query" span feeds xvr.query.latency instead of a stage
// histogram, so it is absent here.
constexpr const char* kStageNames[] = {
    "plan",         "plan.filter",  "plan.selection", "execute",
    "execute.refine", "execute.join", "execute.extract",
};

}  // namespace

EngineMetrics::EngineMetrics(MetricsRegistry* registry) {
  queries_total = registry->GetCounter("xvr.queries.total");
  queries_ok = registry->GetCounter("xvr.queries.ok");
  queries_failed = registry->GetCounter("xvr.queries.failed");
  queries_deadline_exceeded =
      registry->GetCounter("xvr.queries.deadline_exceeded");
  queries_cancelled = registry->GetCounter("xvr.queries.cancelled");
  queries_budget_exhausted =
      registry->GetCounter("xvr.queries.budget_exhausted");
  queries_degraded_selection =
      registry->GetCounter("xvr.queries.degraded_selection");

  plan_cache_lookups = registry->GetCounter("xvr.plan_cache.lookups");
  plan_cache_hits = registry->GetCounter("xvr.plan_cache.hits");
  plan_cache_misses = registry->GetCounter("xvr.plan_cache.misses");
  plan_cache_stale_drops = registry->GetCounter("xvr.plan_cache.stale_drops");
  plan_cache_evictions = registry->GetCounter("xvr.plan_cache.evictions");
  plan_cache_dep_invalidations =
      registry->GetCounter("xvr.plan_cache.dep_invalidations");
  plan_cache_fingerprint_invalidations =
      registry->GetCounter("xvr.plan_cache.fingerprint_invalidations");
  plan_cache_survived_publications =
      registry->GetCounter("xvr.plan_cache.survived_publications");

  catalog_publishes = registry->GetCounter("xvr.catalog.publishes");
  wal_appends = registry->GetCounter("xvr.wal.appends");
  batch_queries = registry->GetCounter("xvr.batch.queries");

  storage_syncs = registry->GetCounter("xvr.storage.syncs");
  storage_io_errors = registry->GetCounter("xvr.storage.io_errors");
  storage_enospc = registry->GetCounter("xvr.storage.enospc");
  storage_stale_tmp_removed =
      registry->GetCounter("xvr.storage.stale_tmp_removed");
  storage_recovery_wal_records_replayed =
      registry->GetCounter("xvr.storage.recovery.wal_records_replayed");
  storage_recovery_tail_clipped =
      registry->GetCounter("xvr.storage.recovery.tail_clipped");

  certify_certified = registry->GetCounter("xvr.certify.certified");
  certify_inconclusive = registry->GetCounter("xvr.certify.inconclusive");
  certify_rejected = registry->GetCounter("xvr.certify.rejected");
  certify_escalated = registry->GetCounter("xvr.certify.escalated");

  server_accepted = registry->GetCounter("xvr.server.accepted");
  server_requests = registry->GetCounter("xvr.server.requests");
  server_responses = registry->GetCounter("xvr.server.responses");
  server_shed = registry->GetCounter("xvr.server.shed");
  server_shed_queue_full = registry->GetCounter("xvr.server.shed_queue_full");
  server_shed_queue_wait = registry->GetCounter("xvr.server.shed_queue_wait");
  server_shed_draining = registry->GetCounter("xvr.server.shed_draining");
  server_parse_reject = registry->GetCounter("xvr.server.parse_reject");
  server_disconnect_cancel =
      registry->GetCounter("xvr.server.disconnect_cancel");
  server_read_timeout = registry->GetCounter("xvr.server.read_timeout");
  server_drain = registry->GetCounter("xvr.server.drain");

  catalog_views = registry->GetGauge("xvr.catalog.views");
  catalog_version = registry->GetGauge("xvr.catalog.version");
  arena_bytes_allocated = registry->GetGauge("xvr.arena.bytes_allocated");
  arena_high_water = registry->GetGauge("xvr.arena.high_water");

  query_latency = registry->GetHistogram("xvr.query.latency");
  batch_queue_wait = registry->GetHistogram("xvr.batch.queue_wait");
  server_queue_wait = registry->GetHistogram("xvr.server.queue_wait");

  static_assert(kStages == sizeof(kStageNames) / sizeof(kStageNames[0]));
  for (size_t i = 0; i < kStages; ++i) {
    stages_[i].span_name = kStageNames[i];
    stages_[i].histogram = registry->GetHistogram(
        std::string("xvr.stage.") + kStageNames[i]);
  }
}

LatencyHistogram* EngineMetrics::StageHistogram(const char* name) const {
  for (const Stage& stage : stages_) {
    // Span names are literals, but compare by content so callers outside
    // the pipeline (tests) are not pointer-identity dependent.
    if (stage.span_name == name ||
        std::strcmp(stage.span_name, name) == 0) {
      return stage.histogram;
    }
  }
  return nullptr;
}

void EngineMetrics::RollUpTrace(const Trace& trace) const {
  const size_t n = trace.size();
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& span = trace.record(i);
    if (std::strcmp(span.name, "query") == 0) {
      query_latency->RecordNanos(span.duration_nanos);
      continue;
    }
    if (LatencyHistogram* histogram = StageHistogram(span.name)) {
      histogram->RecordNanos(span.duration_nanos);
    }
  }
}

}  // namespace xvr
