#ifndef XVR_CORE_PIPELINE_H_
#define XVR_CORE_PIPELINE_H_

// The staged query pipeline: plan (VFILTER + selection, cacheable) then
// execute (fragment refinement/join or base scan).
//
// Thread-safety contract: at the start of every Answer the pipeline pins
// the current immutable CatalogSnapshot (views + VFILTER + fragments) into
// the caller's ExecutionContext and both stages read only that snapshot;
// all per-call mutable scratch lives in the same context, owned by the
// calling thread. Catalog mutations may therefore run fully concurrently
// with answering — a mutation publishes a successor snapshot that only
// queries pinned *after* it observe, while in-flight queries keep their
// snapshot (and every view in it) alive until they finish. One pipeline
// serves any number of threads at once, which is what BatchAnswer
// exploits: it fans a batch of queries across a small worker pool, each
// worker carrying its own context, all sharing the plans in the PlanCache.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/catalog.h"
#include "core/planner.h"
#include "obs/engine_metrics.h"
#include "obs/trace.h"
#include "rewrite/rewriter.h"
#include "vfilter/nfa.h"
#include "xml/dewey.h"
#include "xml/xml_tree.h"

namespace xvr {

// Per-call scratch. Reusable across calls on the same thread; never shared
// between threads. Everything a query answer needs to mutate lives here (or
// in the call frame), keeping the shared engine state immutable.
struct ExecutionContext {
  // NFA runtime state for VFilter::Filter (frontier, visited epochs).
  NfaReadScratch nfa_scratch;
  // Per-query arena + reusable buffers for the rewrite; Answer() rewinds
  // the arena on entry, and Execute() hands it to the rewriter, which
  // rewinds it again.
  RewriteScratch rewrite_scratch;
  // Deadline, cancellation and resource budgets for calls made with this
  // context. Checked at stage boundaries and inside the hot loops; see
  // common/deadline.h. Defaults impose no limit.
  QueryLimits limits;
  // The catalog snapshot this call answers against. Answer() re-pins the
  // current snapshot on entry; a direct Plan()/Execute() call pins lazily
  // and keeps whatever is already pinned (so a caller can deliberately
  // plan and execute against one snapshot across several calls).
  CatalogRef catalog;
  // Per-stage spans of the current call. Answer() clears it on entry and
  // rolls it up into the engine metrics on exit; it survives until the next
  // Answer() on this context, so callers can inspect the last query's
  // stage breakdown.
  Trace trace;
};

// What AnswerQuery returns: the extended Dewey codes of the query result
// plus the per-stage timings.
struct QueryAnswer {
  std::vector<DeweyCode> codes;
  AnswerStats stats;
};

class QueryPipeline {
 public:
  // All pointers must outlive the pipeline. `cache` may be nullptr to
  // disable plan caching. `catalog` returns the engine's current published
  // CatalogSnapshot; the pipeline calls it exactly once per query (the pin)
  // and reads views, VFILTER and fragments only through the pinned
  // snapshot, whose version also drives cache lookup/insert.
  struct Deps {
    const Planner* planner = nullptr;
    PlanCache* cache = nullptr;
    const BaseEvaluator* base = nullptr;
    const XmlTree* doc = nullptr;
    std::function<CatalogRef()> catalog;
    // Engine-wide metrics, never null (the plan cache binds its own
    // counters separately).
    const EngineMetrics* metrics = nullptr;
  };

  explicit QueryPipeline(Deps deps);

  // Stage 1: returns a shared immutable plan for (query, strategy), served
  // from the cache when a fresh one exists, built (and cached) otherwise.
  // `cache_hit`, when non-null, reports where the plan came from.
  Result<std::shared_ptr<const QueryPlan>> Plan(
      const TreePattern& query, AnswerStrategy strategy,
      ExecutionContext* ctx, bool* cache_hit = nullptr) const;

  // Stage 2: executes a plan. Never mutates shared state; `plan` may be
  // executed by many threads at once.
  Result<QueryAnswer> Execute(const QueryPlan& plan,
                              ExecutionContext* ctx) const;

  // Plan + execute.
  Result<QueryAnswer> Answer(const TreePattern& query,
                             AnswerStrategy strategy,
                             ExecutionContext* ctx) const;

  // Answers all queries with `num_threads` workers (0 or 1 = sequential in
  // the calling thread; capped at the batch size). Results are positionally
  // parallel to `queries` and identical to calling Answer sequentially.
  // Failures are isolated per slot: one query failing (unanswerable, over
  // budget, fault-injected) never aborts or poisons the rest of the batch.
  // `limits` applies to every query; a batch-wide deadline makes stragglers
  // fail fast with DEADLINE_EXCEEDED while finished slots keep their
  // answers.
  std::vector<Result<QueryAnswer>> BatchAnswer(
      std::span<const TreePattern> queries, AnswerStrategy strategy,
      int num_threads, const QueryLimits& limits = QueryLimits()) const;

 private:
  // Answer() minus the metrics accounting: the traced plan + execute body.
  Result<QueryAnswer> AnswerTraced(const TreePattern& query,
                                   AnswerStrategy strategy,
                                   ExecutionContext* ctx) const;

  Deps deps_;
};

}  // namespace xvr

#endif  // XVR_CORE_PIPELINE_H_
