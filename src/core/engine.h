#ifndef XVR_CORE_ENGINE_H_
#define XVR_CORE_ENGINE_H_

// The top-level facade tying the whole framework of Figure 1 together:
// a base document, a catalog of materialized views, the VFILTER index, the
// two selection strategies and the multi-view rewriter, plus the base-data
// baselines (BN/BF) for comparison.
//
// Since the pipeline refactor the read path is staged: a Planner turns
// (query, strategy) into an immutable QueryPlan (VFILTER candidates +
// selected views + compensations), an LRU PlanCache keyed on the canonical
// pattern reuses plans across repeated queries, and a QueryPipeline
// executes plans against the fragment store / base indexes.
//
// Online catalog evolution: the whole view catalog (patterns, VFILTER,
// fragments) lives in an immutable CatalogSnapshot published RCU-style
// behind a tiny pointer mutex (a reader's critical section is one
// shared_ptr copy). Every query pins exactly one snapshot in
// its ExecutionContext and answers against it end to end, so
// AddView/RemoveView are safe to run fully concurrently with
// AnswerQuery/BatchAnswer: readers never block on a mutation, never see a
// half-applied one, and never lose a view out from under a join (the pin
// keeps it alive). Writers serialize on an internal mutex, build the
// successor snapshot copy-on-write (fragment vectors are shared, see
// storage/fragment_store.h) and swap it in with a bumped version. Before
// the swap, the publish path hands the mutation's affected-view delta to
// the PlanCache, which retires exactly the cached plans the mutation
// could have changed (core/plan_deps.h) — unrelated plans keep serving
// across catalog churn.
//
// Durability: with EnableCatalogWal, every mutation appends one checksummed
// record to a write-ahead log *before* its snapshot is published, SaveState
// checkpoints and truncates the log, and enabling the WAL on a freshly
// loaded engine replays the tail — so a crash at any point loses at most
// the single in-flight mutation (storage/catalog_wal.h).
//
// Typical use:
//
//   Engine engine(GenerateXmark({}));
//   auto view = engine.Parse("//person[profile/interest]/name");
//   int32_t id = engine.AddView(std::move(view).value()).value();
//   auto query = engine.Parse("/site/people/person[profile/interest]/name");
//   auto answer = engine.AnswerQuery(*query, AnswerStrategy::kHeuristicFiltered);
//   // answer->codes == the extended Dewey codes of the query result.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/catalog.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "exec/evaluator.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "pattern/tree_pattern.h"
#include "rewrite/rewriter.h"
#include "selection/answerability.h"
#include "storage/catalog_wal.h"
#include "storage/fragment_store.h"
#include "storage/materializer.h"
#include "storage/metered_env.h"
#include "vfilter/vfilter.h"
#include "xml/xml_tree.h"

namespace xvr {

struct EngineOptions {
  MaterializeOptions materialize;  // 128 KB per-view cap by default
  // Number of plans the LRU PlanCache retains; 0 disables plan caching.
  size_t plan_cache_capacity = 1024;
  // Storage environment for all persistence (state images, catalog WAL).
  // nullptr = DefaultEnv() (fd-level POSIX I/O with real fsync points).
  // Tests inject a CrashSimEnv here to cut simulated power mid-save. Not
  // owned; must outlive the engine.
  Env* env = nullptr;
};

// A point-in-time view of the engine's serving health, assembled from the
// metrics registry and the plan cache. The plan-cache block comes from
// PlanCache's own stats.
struct ServerStats {
  uint64_t queries_total = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t queries_deadline_exceeded = 0;
  uint64_t queries_cancelled = 0;
  uint64_t queries_budget_exhausted = 0;
  uint64_t queries_degraded_selection = 0;
  PlanCache::Stats plan_cache;
  uint64_t catalog_publishes = 0;
  uint64_t wal_appends = 0;
  uint64_t batch_queries = 0;
  // Storage durability and degradation (see obs/engine_metrics.h): sync
  // points paid, I/O failures survived (the engine keeps serving the prior
  // image), and what the last recovery had to do.
  uint64_t storage_syncs = 0;
  uint64_t storage_io_errors = 0;
  uint64_t storage_enospc = 0;
  uint64_t storage_stale_tmp_removed = 0;
  uint64_t storage_recovery_wal_records_replayed = 0;
  uint64_t storage_recovery_tail_clipped = 0;
  uint64_t catalog_version = 0;
  size_t catalog_views = 0;
  LatencyHistogram::Snapshot query_latency;
  // Serving front end (net/server.h): HTTP traffic and the distinct
  // failure causes the admission pipeline produces. Load shedding and
  // malformed-request rejection are separate counters on purpose — one is
  // server overload, the other a client bug — and server_queue_wait covers
  // admitted requests only (shed requests never enter the queue).
  uint64_t server_accepted = 0;
  uint64_t server_requests = 0;
  uint64_t server_responses = 0;
  uint64_t server_shed = 0;
  uint64_t server_shed_queue_full = 0;
  uint64_t server_shed_queue_wait = 0;
  uint64_t server_shed_draining = 0;
  uint64_t server_parse_reject = 0;
  uint64_t server_disconnect_cancel = 0;
  uint64_t server_read_timeout = 0;
  uint64_t server_drain = 0;
  LatencyHistogram::Snapshot server_queue_wait;
};

class Engine {
 public:
  // Takes ownership of the document; Dewey codes are assigned if absent.
  explicit Engine(XmlTree doc, EngineOptions options = {});

  // Internal components hold references into the engine.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const XmlTree& doc() const { return doc_; }
  LabelDict& labels() { return doc_.labels(); }

  // Parses an XPath against the document's label dictionary.
  Result<TreePattern> Parse(const std::string& xpath);

  // --- view catalog ---------------------------------------------------------
  //
  // Catalog mutations are safe to run concurrently with answering: each one
  // publishes a successor snapshot; in-flight queries keep the snapshot
  // they pinned. Mutations serialize against each other on an internal
  // writer mutex. With a WAL enabled, the mutation is logged before it is
  // published and fails (unpublished) if the log append fails.

  // Materializes and indexes a view: every catalog view stores the full
  // subtree of each answer node. Fails with NOT_FOUND for empty results and
  // CAPACITY_EXCEEDED when the per-view fragment budget is hit.
  Result<int32_t> AddView(TreePattern view);

  // Drops a view from the catalog. NOT_FOUND when `id` names no view
  // (known ids include quarantined ones); IO_ERROR when the WAL append
  // fails (the view is then still present).
  Status RemoveView(int32_t id);

  // The pattern of a known view (quarantined included), nullptr otherwise.
  // The pointee lives inside the current snapshot: it stays valid until the
  // next catalog mutation. Concurrent callers should pin Catalog() and use
  // CatalogSnapshot::view instead.
  const TreePattern* view(int32_t id) const { return Catalog()->view(id); }
  size_t num_views() const { return Catalog()->views.size(); }
  // Sorted ascending (deterministic selection tie-breaking and output).
  std::vector<int32_t> view_ids() const { return Catalog()->view_ids(); }

  // Version of the current catalog snapshot; bumped by every mutation.
  // Cached plans survive a bump exactly when the publish sweep proved the
  // mutation could not have changed them.
  uint64_t catalog_version() const { return Catalog()->version; }

  // The current published snapshot. Holding the returned CatalogRef pins
  // every view in it (patterns, VFILTER, fragments) for as long as the
  // caller keeps it, regardless of concurrent mutations.
  CatalogRef Catalog() const XVR_EXCLUDES(published_mu_) {
    MutexLock lock(&published_mu_);
    return catalog_;
  }

  // --- durability (catalog WAL) --------------------------------------------

  // Enables the catalog write-ahead log at `path` (created when absent).
  // Any intact records already in the log with sequence numbers above the
  // loaded image's checkpoint are replayed into the catalog first — this is
  // the crash-recovery path — then every subsequent mutation is appended
  // before it is published. A skipped add whose view id is not below the
  // image's next view id means the checkpoint is wrong: PARSE_ERROR. Call
  // once, before serving mutations; typically right after construction or
  // LoadState.
  Status EnableCatalogWal(const std::string& path);

  // Whether a WAL is enabled, and the highest sequence number appended.
  bool catalog_wal_enabled() const;
  uint64_t catalog_wal_last_seq() const;

  // --- answering ------------------------------------------------------------
  //
  // The read path is const and snapshot-isolated: answering pins one
  // catalog snapshot per query and never mutates engine state other than
  // the internally synchronized plan cache.

  using Answer = QueryAnswer;

  // Answers with one ExecutionContext per calling thread, reused by every
  // AnswerQuery and SelectViews call on that thread (and every engine it
  // calls), so the NFA scratch, arena and buffers are allocated once per
  // thread, not per query, and keep their largest size until the thread
  // exits. The context keeps no catalog pin once the call returns.
  Result<Answer> AnswerQuery(const TreePattern& query,
                             AnswerStrategy strategy) const;

  // Limit-aware variant: `limits` carries the deadline, the cancel token
  // and the resource budgets (common/deadline.h). An expired deadline
  // surfaces as DEADLINE_EXCEEDED within one stage boundary. When exact
  // minimum selection meets a leaf universe too large for its DP, the
  // planner degrades to the greedy heuristic instead
  // (stats.degraded_selection) and the query still answers.
  Result<Answer> AnswerQuery(const TreePattern& query, AnswerStrategy strategy,
                             const QueryLimits& limits) const;

  // Answers all queries, fanning them across `num_threads` workers (0 or 1
  // = sequential). Results are positionally parallel to `queries` and
  // identical to sequential AnswerQuery calls. Per-slot failures never
  // abort or poison the rest of the batch; `limits` applies to every query.
  std::vector<Result<Answer>> BatchAnswer(
      std::span<const TreePattern> queries, AnswerStrategy strategy,
      int num_threads = 0, const QueryLimits& limits = QueryLimits()) const;

  // Selection only ("lookup" in the paper's Fig. 9). Valid for the view
  // strategies. The query is used as given (no minimization): the cover
  // node indices in the result refer to it. Runs on the calling thread's
  // context, like AnswerQuery, and drops its catalog pin on return.
  Result<SelectionResult> SelectViews(const TreePattern& query,
                                      AnswerStrategy strategy,
                                      AnswerStats* stats) const;

  // --- persistence -----------------------------------------------------------
  //
  // Saves the complete state (document, view patterns, materialized
  // fragments) into one KvStore image on disk and restores it, as the
  // paper's deployment keeps the fragments in BDB across sessions. VFILTER
  // is not saved: LoadState rebuilds it from the serving views' patterns.
  //
  // Crash safety and corruption tolerance: the image is written via
  // write-temp-then-rename and carries a FNV-1a checksum, so a crash
  // mid-save never loses the previous good state. On load, a view with
  // corrupt fragments is quarantined — dropped from the selection
  // candidates with a warning — while the engine keeps answering from the
  // remaining views. Only a corrupt document (or a torn image, caught by
  // the checksum) fails the load, as does an image whose keys contradict
  // each other: an id not below meta/next_view_id, a view marker other than
  // "quarantined", a stored view with neither fragments nor that marker, or
  // a meta/wal_seq that is not a decimal u64 below 2^64-1.
  //
  // With a WAL enabled, a successful SaveState checkpoints the image at the
  // WAL's last sequence number and truncates the log; if only the truncate
  // fails its error is returned, but the image is durable and the stale
  // records are skipped on replay (they are at or below the checkpoint).

  Status SaveState(const std::string& path) const;
  static Result<std::unique_ptr<Engine>> LoadState(const std::string& path,
                                                   EngineOptions options = {});

  // LoadState + EnableCatalogWal(wal_path) in one step: restores the image,
  // replays the WAL tail (mutations since the last SaveState) and keeps the
  // log enabled for subsequent mutations. The standard crash-recovery
  // entry point.
  static Result<std::unique_ptr<Engine>> LoadStateWithWal(
      const std::string& path, const std::string& wal_path,
      EngineOptions options = {});

  // Views quarantined by LoadState (corrupt fragments), sorted ascending.
  // Their patterns remain visible through view(id) for diagnosis, but they
  // are excluded from view_ids(), the planner's lookup and VFILTER, so no
  // plan ever selects them. Re-adding a fresh view under a new id is the
  // way back.
  std::vector<int32_t> quarantined_view_ids() const {
    return Catalog()->quarantined_view_ids();
  }
  bool IsViewQuarantined(int32_t id) const {
    return Catalog()->IsViewQuarantined(id);
  }

  // The storage environment every persistence call of this engine goes
  // through: options.env (or DefaultEnv()) wrapped in the metering
  // decorator feeding the xvr.storage.* counters.
  Env* env() const { return metered_env_.get(); }

  // --- observability ---------------------------------------------------------
  //
  // The engine owns one MetricsRegistry; the whole serving path records
  // into it (see obs/engine_metrics.h for the metric catalog). Recording is
  // lock-free and sharded.

  MetricsRegistry& metrics() const { return metrics_registry_; }

  // Point-in-time serving health: query/failure/degradation counts, plan
  // cache stats, catalog churn and the whole-call latency distribution.
  xvr::ServerStats ServerStats() const;

  // Full metric catalog, one instrument per line / as one JSON object.
  std::string MetricsText() const { return metrics_registry_.TextExposition(); }
  std::string MetricsJson() const { return metrics_registry_.JsonExposition(); }

  // --- component access (benches, tests) ------------------------------------
  //
  // Convenience references into the *current* snapshot: stable only until
  // the next catalog mutation. Code that answers concurrently with
  // mutations must pin Catalog() instead.

  const VFilter& vfilter() const { return Catalog()->vfilter; }
  const BaseEvaluator& base() const { return base_; }
  const FragmentStore& fragments() const { return Catalog()->fragments; }
  const QueryPipeline& pipeline() const { return *pipeline_; }
  const Planner& planner() const { return *planner_; }
  // nullptr when plan caching is disabled (plan_cache_capacity == 0).
  PlanCache* plan_cache() const { return plan_cache_.get(); }

 private:
  // Copies the current snapshot as the writer's successor scratch: the
  // copy shares every table chunk (core/catalog.h), and the mutation clones
  // only the chunks it writes.
  CatalogSnapshot CloneCatalog() const XVR_REQUIRES(catalog_mu_);

  // Stamps the successor's version, sweeps the plan cache with `delta`
  // (targeted invalidation, before the swap so readers of the successor
  // never pick up a retired plan) and swaps the snapshot in. The retired
  // snapshot is released after the readers' lock.
  void PublishCatalog(CatalogSnapshot next, CatalogDelta delta)
      XVR_REQUIRES(catalog_mu_);

  // The shared mutation body: materializes `view`, installs it under the
  // next view id, appends to the WAL when `log_to_wal`, then publishes.
  Result<int32_t> AddViewLocked(TreePattern view, bool log_to_wal)
      XVR_REQUIRES(catalog_mu_);
  Status RemoveViewLocked(int32_t id, bool log_to_wal)
      XVR_REQUIRES(catalog_mu_);

  // Replays one WAL record (no re-append).
  Status ApplyWalRecordLocked(const CatalogWalRecord& record)
      XVR_REQUIRES(catalog_mu_);

  XmlTree doc_;
  EngineOptions options_;
  BaseEvaluator base_;

  // Observability (before the read path: the pipeline and the plan cache
  // hold pointers into it). mutable: recording from the const read path is
  // internally synchronized (lock-free sharded cells).
  mutable MetricsRegistry metrics_registry_;
  std::unique_ptr<EngineMetrics> metrics_;

  // The metering wrapper around options_.env / DefaultEnv() (after
  // metrics_: it holds the storage counters).
  std::unique_ptr<MeteredEnv> metered_env_;

  // The published catalog, behind its own tiny mutex: both sides only ever
  // copy/assign a shared_ptr inside the critical section, so readers wait
  // nanoseconds, never for a mutation in progress (all mutation work runs
  // off-lock on the writer's private successor). Deliberately not
  // std::atomic<shared_ptr>: libstdc++'s lock-bit implementation releases
  // its load() with memory_order_relaxed, which leaves the internal pointer
  // read/write pair without a happens-before edge — a C++-level data race
  // that ThreadSanitizer (correctly) reports. Old snapshots die when the
  // last pinned reader drops them, or in PublishCatalog after the unlock.
  // Lock order: catalog_mu_ → published_mu_.
  mutable Mutex published_mu_;
  CatalogRef catalog_ XVR_GUARDED_BY(published_mu_);

  // Serializes catalog writers (AddView/RemoveView/LoadState install/WAL
  // replay/SaveState checkpointing).
  mutable Mutex catalog_mu_;
  std::unique_ptr<CatalogWal> wal_ XVR_GUARDED_BY(catalog_mu_);
  // Highest WAL sequence number covered by the last saved (or loaded)
  // image; replay skips records at or below it.
  mutable uint64_t wal_checkpoint_seq_ XVR_GUARDED_BY(catalog_mu_) = 0;

  // The staged read path (construction order: after the components above).
  std::unique_ptr<Planner> planner_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<QueryPipeline> pipeline_;
};

}  // namespace xvr

#endif  // XVR_CORE_ENGINE_H_
