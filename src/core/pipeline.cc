#include "core/pipeline.h"

#include <algorithm>
#include <utility>

#include "analysis/certify.h"
#include "analysis/validate.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "rewrite/rewriter.h"
#include "xml/fst.h"

namespace xvr {

#if defined(XVR_VALIDATE)
namespace {

// Debug-build hook: every plan leaving Plan() — freshly built or straight
// out of the plan cache — re-certifies against the pinned snapshot
// (analysis/certify.h). Cache hits matter as much as fresh builds: their
// hoisted compensating patterns are the artifacts most exposed to drift.
// A rejected certificate is an invariant violation (XVR_DEBUG_VALIDATE
// aborts with the summary); certified/inconclusive verdicts only feed the
// xvr.certify.* counters.
Status CertifyPlanHook(const QueryPlan& plan, const CatalogSnapshot& catalog,
                       const LabelDict& dict, const EngineMetrics& metrics) {
  CertifyOptions options;
  options.dict = &dict;
  const Certificate cert = CertifyPlan(plan, catalog.MakeLookup(), options);
  switch (cert.verdict) {
    case CertifyVerdict::kCertified:
      metrics.certify_certified->Add();
      break;
    case CertifyVerdict::kInconclusive:
      metrics.certify_inconclusive->Add();
      break;
    case CertifyVerdict::kRejected:
      metrics.certify_rejected->Add();
      break;
  }
  if (cert.escalations > 0) {
    metrics.certify_escalated->Add(static_cast<uint64_t>(cert.escalations));
  }
  if (cert.verdict == CertifyVerdict::kRejected) {
    return Status::Internal("plan failed certification: " + cert.Summary());
  }
  return Status::Ok();
}

}  // namespace
#endif  // XVR_VALIDATE

QueryPipeline::QueryPipeline(Deps deps) : deps_(std::move(deps)) {
  XVR_CHECK(deps_.planner != nullptr);
  XVR_CHECK(deps_.base != nullptr);
  XVR_CHECK(deps_.doc != nullptr);
  XVR_CHECK(deps_.catalog != nullptr);
  XVR_CHECK(deps_.metrics != nullptr);
}

Result<std::shared_ptr<const QueryPlan>> QueryPipeline::Plan(
    const TreePattern& query, AnswerStrategy strategy, ExecutionContext* ctx,
    bool* cache_hit) const {
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  // Stage boundary: an already-expired deadline or a tripped cancel token
  // fails here, before any planning work.
  XVR_RETURN_IF_ERROR(CheckInterrupted(ctx->limits, "pipeline.plan"));
  XVR_FAULT_POINT("pipeline.plan",
                  return Status::Internal("injected: pipeline.plan"));
  ScopedSpan plan_span(&ctx->trace, "plan");
  if (ctx->catalog == nullptr) {
    ctx->catalog = deps_.catalog();  // lint:catalog-pin-ok (direct Plan call)
  }
  const CatalogSnapshot& catalog = *ctx->catalog;
  const uint64_t version = catalog.version;
  std::string key;
  if (deps_.cache != nullptr) {
    key = PlanCacheKey(query, strategy);
    std::shared_ptr<const QueryPlan> cached =
        deps_.cache->Lookup(key, version);
    XVR_DEBUG_VALIDATE(ValidatePlanCacheStats(deps_.cache->stats()));
    if (cached != nullptr) {
      if (cached->not_answerable) {
        // Negative hit: selection already proved this query unanswerable
        // against a catalog the publish sweeps kept this verdict valid
        // for. Skip replanning and surface the cached failure.
        if (cache_hit != nullptr) {
          *cache_hit = true;
        }
        return Status::NotAnswerable(cached->failure_message);
      }
      if (cache_hit != nullptr) {
        *cache_hit = true;
      }
      XVR_DEBUG_VALIDATE(CertifyPlanHook(*cached, catalog,
                                         deps_.doc->labels(),
                                         *deps_.metrics));
      return cached;
    }
  }
  QueryPlan plan;
  QueryPlan tombstone;
  Result<QueryPlan> built =
      deps_.planner->BuildPlan(catalog, query, strategy, &ctx->nfa_scratch,
                               ctx->limits, &ctx->trace, &tombstone);
  if (!built.ok()) {
    // Cache a NOT_ANSWERABLE verdict (when the planner produced one) so
    // repeated unanswerable queries skip the filter + selection work until
    // a view that could change the verdict is published.
    if (deps_.cache != nullptr && tombstone.not_answerable) {
      deps_.cache->Insert(
          key, std::make_shared<const QueryPlan>(std::move(tombstone)));
    }
    return built.status();
  }
  plan = std::move(built).value();
  // The plan's minimized pattern is what selection indexed and
  // what execution will embed — it must still be a well-formed pattern.
  XVR_DEBUG_VALIDATE(ValidateTreePattern(plan.query));
  auto shared = std::make_shared<const QueryPlan>(std::move(plan));
  XVR_DEBUG_VALIDATE(CertifyPlanHook(*shared, catalog, deps_.doc->labels(),
                                     *deps_.metrics));
  if (deps_.cache != nullptr) {
    deps_.cache->Insert(key, shared);
  }
  return shared;
}

Result<QueryAnswer> QueryPipeline::Execute(const QueryPlan& plan,
                                           ExecutionContext* ctx) const {
  // Stage boundary: plans whose deadline expired during planning fail here
  // rather than starting a scan.
  XVR_RETURN_IF_ERROR(CheckInterrupted(ctx->limits, "pipeline.execute"));
  XVR_FAULT_POINT("pipeline.execute",
                  return Status::Internal("injected: pipeline.execute"));
  if (ctx->catalog == nullptr) {
    ctx->catalog = deps_.catalog();  // lint:catalog-pin-ok (direct Execute)
  }
  QueryAnswer answer;
  // Carry the plan's candidate counts and degradation flags, but report
  // zero planning time: this call executes a plan it did not build. The
  // planning cost stays inspectable in plan_filter/plan_selection_micros;
  // Answer() restores filter/selection_micros when it planned in the same
  // call (cache miss).
  answer.stats = plan.plan_stats;
  answer.stats.filter_micros = 0;
  answer.stats.selection_micros = 0;
  ScopedSpan exec_span(&ctx->trace, "execute");
  if (!plan.uses_views) {
    const std::vector<NodeId> nodes =
        deps_.base->Evaluate(plan.query, plan.base_strategy);
    if (ctx->limits.max_result_codes > 0 &&
        nodes.size() > ctx->limits.max_result_codes) {
      return Status::ResourceExhausted(
          "answer has " + std::to_string(nodes.size()) +
          " nodes, over the result budget of " +
          std::to_string(ctx->limits.max_result_codes));
    }
    answer.codes.reserve(nodes.size());
    for (NodeId n : nodes) {
      answer.codes.push_back(deps_.doc->dewey(n));
    }
    std::sort(answer.codes.begin(), answer.codes.end());
    answer.stats.execution_micros = exec_span.StopMicros();
    answer.stats.total_micros = answer.stats.execution_micros;
    return answer;
  }
  RewriteOptions rewrite_options;
  rewrite_options.limits = ctx->limits;
  rewrite_options.trace = &ctx->trace;
  rewrite_options.scratch = &ctx->rewrite_scratch;
  // The plan outlives the call (shared_ptr, possibly cached), so its hoisted
  // compensating patterns are stable to point at for the whole rewrite.
  rewrite_options.compensation = &plan.compensation;
  Result<std::vector<DeweyCode>> codes =
      AnswerWithViews(plan.query, plan.selection, ctx->catalog->fragments,
                      *deps_.doc->fst(), &answer.stats.rewrite,
                      rewrite_options);
  answer.stats.execution_micros = exec_span.StopMicros();
  answer.stats.total_micros = answer.stats.execution_micros;
  if (!codes.ok()) {
    return codes.status();
  }
  answer.codes = std::move(codes).value();
  return answer;
}

Result<QueryAnswer> QueryPipeline::AnswerTraced(const TreePattern& query,
                                                AnswerStrategy strategy,
                                                ExecutionContext* ctx) const {
  ScopedSpan query_span(&ctx->trace, "query");
  // The pin: exactly one snapshot per query. Planning and execution both
  // read it, so a concurrent catalog mutation can neither tear this query
  // nor free a view it joins over.
  ctx->catalog = deps_.catalog();  // lint:catalog-pin-ok (the per-query pin)
  std::shared_ptr<const QueryPlan> plan;
  bool cache_hit = false;
  XVR_ASSIGN_OR_RETURN(plan, Plan(query, strategy, ctx, &cache_hit));
  Result<QueryAnswer> answer = Execute(*plan, ctx);
  if (answer.ok()) {
    answer->stats.plan_cache_hit = cache_hit;
    if (!cache_hit) {
      // This call built the plan, so the planning time is this call's work.
      answer->stats.filter_micros = plan->plan_stats.filter_micros;
      answer->stats.selection_micros = plan->plan_stats.selection_micros;
    }
    // Wall time of this call only: lookup + execution on a hit, planning +
    // execution on a miss. Summing total_micros across repeated calls now
    // matches elapsed wall time instead of double-counting planning.
    answer->stats.total_micros = query_span.StopMicros();
    // Every strategy promises codes in strictly increasing document order.
    XVR_DEBUG_VALIDATE(ValidateAnswerCodes(answer->codes));
  }
  return answer;
}

Result<QueryAnswer> QueryPipeline::Answer(const TreePattern& query,
                                          AnswerStrategy strategy,
                                          ExecutionContext* ctx) const {
  ctx->trace.Clear();
  // The context may carry the thread's previous query (of any engine);
  // rewinding the arena here makes the footprint below this call's alone.
  ctx->rewrite_scratch.Reset();
  Result<QueryAnswer> answer = AnswerTraced(query, strategy, ctx);
  const EngineMetrics& m = *deps_.metrics;
  m.queries_total->Add();
  if (answer.ok()) {
    m.queries_ok->Add();
    if (answer->stats.degraded_selection) {
      m.queries_degraded_selection->Add();
    }
  } else {
    m.queries_failed->Add();
    switch (answer.status().code()) {
      case StatusCode::kDeadlineExceeded:
        m.queries_deadline_exceeded->Add();
        break;
      case StatusCode::kCancelled:
        m.queries_cancelled->Add();
        break;
      case StatusCode::kResourceExhausted:
        m.queries_budget_exhausted->Add();
        break;
      default:
        break;
    }
  }
  m.RollUpTrace(ctx->trace);
  // Arena footprint of this query (last-writer-wins across contexts; the
  // high-water gauge ratchets over this engine's queries only, not over
  // the arena's, which a thread shares between engines).
  const int64_t used =
      static_cast<int64_t>(ctx->rewrite_scratch.arena.bytes_allocated());
  m.arena_bytes_allocated->Set(used);
  if (used > m.arena_high_water->Value()) {
    m.arena_high_water->Set(used);
  }
  return answer;
}

}  // namespace xvr
