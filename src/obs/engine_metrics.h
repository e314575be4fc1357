#ifndef XVR_OBS_ENGINE_METRICS_H_
#define XVR_OBS_ENGINE_METRICS_H_

// The engine's typed handle on its MetricsRegistry: every metric the
// serving path records, resolved by name once at construction so hot-path
// code touches plain pointers and never the registry mutex.
//
// Metric catalog (names as exposed):
//   xvr.queries.total / ok / failed        one per Answer() call
//   xvr.queries.deadline_exceeded          failures by cause
//   xvr.queries.cancelled
//   xvr.queries.budget_exhausted
//   xvr.queries.degraded_selection         exhaustive -> greedy fallback
//   xvr.plan_cache.lookups/hits/misses/stale_drops/evictions
//   xvr.plan_cache.dep_invalidations      publish-sweep drops: a selected /
//                                         candidate view was removed (or a
//                                         full rebuild republished)
//   xvr.plan_cache.fingerprint_invalidations
//                                         publish-sweep drops: a new view's
//                                         NFA admits one of the plan's leaf
//                                         paths
//   xvr.plan_cache.survived_publications  entries the sweep proved
//                                         unaffected and re-stamped
//   xvr.catalog.publishes                  snapshot publications
//   xvr.wal.appends                        catalog WAL records written
//   xvr.batch.queries                      queries submitted via BatchAnswer
//   xvr.storage.syncs                      fsync/fdatasync durability points
//                                          paid (file Sync + SyncDir)
//   xvr.storage.io_errors                  storage Env ops that failed with
//                                          an I/O error
//   xvr.storage.enospc                     the out-of-space subset of
//                                          io_errors (counted additionally)
//   xvr.storage.stale_tmp_removed          crash-stranded .tmp siblings
//                                          swept by a later save
//   xvr.storage.recovery.wal_records_replayed
//                                          WAL records applied on recovery
//   xvr.storage.recovery.tail_clipped      recoveries that dropped a torn
//                                          WAL tail
//   xvr.certify.certified                  plan certificates by verdict
//   xvr.certify.inconclusive               (debug builds: the XVR_VALIDATE
//   xvr.certify.rejected                   hook certifies every plan)
//   xvr.certify.escalated                  canonical-model (coNP) escalations
//   xvr.catalog.views / version            gauges
//   xvr.arena.bytes_allocated              last query's arena footprint
//   xvr.arena.high_water                   largest arena footprint seen
//   xvr.query.latency                      whole-call latency histogram
//   xvr.batch.queue_wait                   submit -> pickup wait per query
//   xvr.server.accepted                    HTTP connections accepted
//   xvr.server.requests / responses        HTTP requests in / responses out
//   xvr.server.shed                        engine requests load-shed (503),
//   xvr.server.shed_queue_full             broken out by cause: bounded
//   xvr.server.shed_queue_wait             queue full, queue-wait EWMA over
//   xvr.server.shed_draining               bound, graceful drain in progress
//   xvr.server.parse_reject                malformed HTTP -> 4xx (distinct
//                                          failure cause: client bug, not
//                                          server overload)
//   xvr.server.disconnect_cancel           client gone mid-flight -> cancel
//   xvr.server.read_timeout                slowloris 408s
//   xvr.server.drain                       graceful drains initiated
//   xvr.server.queue_wait                  admission -> worker pickup wait,
//                                          admitted requests only (shed
//                                          requests never enter the queue)
//   xvr.stage.<span>                       per-stage histograms, one per
//                                          trace span name (plan.filter,
//                                          plan.selection, execute.refine,
//                                          execute.join, execute.extract,
//                                          plan, execute)

#include "obs/metrics.h"
#include "obs/trace.h"

namespace xvr {

struct EngineMetrics {
  explicit EngineMetrics(MetricsRegistry* registry);

  // Per-stage histogram for a span name, or null for names outside the
  // pre-registered stage table. The table is immutable after construction,
  // so lookups are lock-free.
  LatencyHistogram* StageHistogram(const char* name) const;

  // Feeds every retained span of a completed query into its stage
  // histogram.
  void RollUpTrace(const Trace& trace) const;

  Counter* queries_total;
  Counter* queries_ok;
  Counter* queries_failed;
  Counter* queries_deadline_exceeded;
  Counter* queries_cancelled;
  Counter* queries_budget_exhausted;
  Counter* queries_degraded_selection;

  Counter* plan_cache_lookups;
  Counter* plan_cache_hits;
  Counter* plan_cache_misses;
  Counter* plan_cache_stale_drops;
  Counter* plan_cache_evictions;
  Counter* plan_cache_dep_invalidations;
  Counter* plan_cache_fingerprint_invalidations;
  Counter* plan_cache_survived_publications;

  Counter* catalog_publishes;
  Counter* wal_appends;
  Counter* batch_queries;

  Counter* storage_syncs;
  Counter* storage_io_errors;
  Counter* storage_enospc;
  Counter* storage_stale_tmp_removed;
  Counter* storage_recovery_wal_records_replayed;
  Counter* storage_recovery_tail_clipped;

  Counter* certify_certified;
  Counter* certify_inconclusive;
  Counter* certify_rejected;
  Counter* certify_escalated;

  // Serving front end (net/server.h). Registered here so ServerStats and
  // the expositions see them even before any HttpServer exists; the server
  // resolves the same names from the registry (Get* dedupes by name).
  Counter* server_accepted;
  Counter* server_requests;
  Counter* server_responses;
  Counter* server_shed;
  Counter* server_shed_queue_full;
  Counter* server_shed_queue_wait;
  Counter* server_shed_draining;
  Counter* server_parse_reject;
  Counter* server_disconnect_cancel;
  Counter* server_read_timeout;
  Counter* server_drain;

  Gauge* catalog_views;
  Gauge* catalog_version;
  Gauge* arena_bytes_allocated;
  Gauge* arena_high_water;

  LatencyHistogram* query_latency;
  LatencyHistogram* batch_queue_wait;
  LatencyHistogram* server_queue_wait;

 private:
  struct Stage {
    const char* span_name;
    LatencyHistogram* histogram;
  };
  static constexpr size_t kStages = 7;
  Stage stages_[kStages];
};

}  // namespace xvr

#endif  // XVR_OBS_ENGINE_METRICS_H_
