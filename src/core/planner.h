#ifndef XVR_CORE_PLANNER_H_
#define XVR_CORE_PLANNER_H_

// The planning stage of the query pipeline.
//
// Planning turns a query pattern into a QueryPlan — everything that depends
// only on the pattern and the current view catalog, nothing that depends on
// a particular execution: the minimized pattern, the VFILTER candidate set,
// the selected view set with per-view leaf covers (the paper's Algorithm 2
// or the minimum set-cover DP), and the planning-phase stats. Plans are
// immutable once built, so they can be shared across threads and cached
// across calls; executing a plan never mutates it.
//
// The Planner itself is const-correct, stateless and thread-safe: every
// call plans against an explicit, immutable CatalogSnapshot pinned by the
// caller (one per query, see core/catalog.h), and all NFA runtime state
// lives in a caller-provided NfaReadScratch. Catalog mutations therefore
// never race planning — a plan observes exactly one published catalog.
// PlanCache is an LRU keyed on the query pattern's canonical key +
// strategy. Invalidation is dependency-tracked, not version-keyed: every
// plan records what it read from the catalog (core/plan_deps.h), and the
// publish path sweeps the cache with the mutation's affected-view delta
// (OnCatalogPublish), eagerly retiring exactly the entries the mutation
// could have changed — conservatively over-invalidating when in doubt,
// never under-invalidating. Surviving entries are re-stamped to the new
// version, so lookups stay an exact version match.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/catalog.h"
#include "core/plan_deps.h"
#include "exec/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/tree_pattern.h"
#include "rewrite/rewriter.h"
#include "selection/answerability.h"
#include "vfilter/vfilter.h"

namespace xvr {

enum class AnswerStrategy {
  kBaseNodeIndex,      // BN: base data, basic node index
  kBaseFullIndex,      // BF: base data, full path index
  kMinimumNoFilter,    // MN: minimum view set, no VFILTER
  kMinimumFiltered,    // MV: minimum view set over VFILTER candidates
  kHeuristicFiltered,  // HV: Algorithm 2 over VFILTER candidates
  // HB: the cost-model variant §IV-B sketches — Algorithm 2 ordering
  // candidates by materialized fragment size instead of path length.
  kHeuristicSmallFragments,
};

inline constexpr AnswerStrategy kAllAnswerStrategies[] = {
    AnswerStrategy::kBaseNodeIndex,   AnswerStrategy::kBaseFullIndex,
    AnswerStrategy::kMinimumNoFilter, AnswerStrategy::kMinimumFiltered,
    AnswerStrategy::kHeuristicFiltered,
    AnswerStrategy::kHeuristicSmallFragments,
};

const char* AnswerStrategyName(AnswerStrategy strategy);

// The strategy in kAllAnswerStrategies whose AnswerStrategyName is `name`;
// INVALID_ARGUMENT listing every accepted name otherwise.
Result<AnswerStrategy> ParseAnswerStrategy(std::string_view name);

inline bool IsBaseStrategy(AnswerStrategy strategy) {
  return strategy == AnswerStrategy::kBaseNodeIndex ||
         strategy == AnswerStrategy::kBaseFullIndex;
}

// Per-call timing contract: filter/selection/execution/total_micros report
// work done by *this* call only, so summing total_micros across calls
// matches wall time even when plans are reused. On a plan-cache hit the
// call did no planning — filter_micros and selection_micros are zero — and
// the original planning cost stays inspectable in plan_filter_micros /
// plan_selection_micros (which a cache miss fills with the same values as
// filter/selection_micros).
struct AnswerStats {
  double filter_micros = 0;     // VFILTER time (zero for BN/BF/MN)
  double selection_micros = 0;  // leaf covers + set cover / greedy walk
  double execution_micros = 0;  // fragment refinement/join or base scan
  double total_micros = 0;
  // What building this call's plan cost when it was built — possibly by an
  // earlier call, when the plan came out of the PlanCache.
  double plan_filter_micros = 0;
  double plan_selection_micros = 0;
  size_t candidates_after_filter = 0;
  size_t views_selected = 0;
  int covers_computed = 0;
  // True when the plan (filter + selection) came out of the PlanCache.
  bool plan_cache_hit = false;
  // The degradation that can fire while planning: exhaustive minimum-set
  // selection overran its deadline slice (or blew the DP's 20-bit
  // universe) and the planner fell back to the greedy heuristic — the
  // answer is still correct, just possibly over more views.
  bool degraded_selection = false;
  RewriteStats rewrite;
};

// The immutable product of the planning stage. `query` is the minimized
// pattern the plan was built for; the cover node indices inside `selection`
// refer to it, so execution must use this pattern, not the caller's
// original.
struct QueryPlan {
  TreePattern query;
  AnswerStrategy strategy = AnswerStrategy::kHeuristicFiltered;

  // Base strategies bypass selection entirely.
  bool uses_views = false;
  BaseStrategy base_strategy = BaseStrategy::kNodeIndex;

  // Valid when uses_views.
  SelectionResult selection;

  // Plan-hoisted compensating patterns (per-view refinement + anchor path,
  // primary extraction), derived once from (query, selection) at plan time
  // so cache hits execute with zero pattern construction. Positionally
  // parallel to selection.views.
  PlanCompensation compensation;

  // Planning-phase stats (filter/selection timings, candidate counts).
  // Plans with plan_stats.degraded_selection are never inserted into the
  // PlanCache (PlanCache::Insert rejects them defensively), so a query
  // whose leaf universe overflows exact selection replans on every call.
  AnswerStats plan_stats;

  // Negative plan ("tombstone"): selection proved the query unanswerable
  // over the plan's candidate set. Cached like any plan so repeated
  // unanswerable queries skip replanning; a hit surfaces NOT_ANSWERABLE
  // with `failure_message` instead of executing. Removing views never
  // makes a query answerable, so tombstones survive every RemoveView; a
  // published view that admits against the fingerprint retires them.
  bool not_answerable = false;
  std::string failure_message;

  // What this plan read from the catalog (targeted invalidation).
  PlanDependencies deps;

  // The catalog version the plan was built against.
  uint64_t catalog_version = 0;
};

class Planner {
 public:
  // Runs VFILTER + view selection for `query` exactly as given (no
  // minimization — the cover node indices in the result refer to the
  // caller's pattern) against the pinned `catalog`. Base strategies are
  // INVALID_ARGUMENT.
  //
  // `limits` governs planning: the deadline/cancel token are honored inside
  // filtering and selection. When exhaustive minimum-set selection (MN/MV)
  // cannot run because the set-cover DP's leaf universe overflows its 20
  // bits, the planner *degrades* to the greedy heuristic over the same
  // candidates and records it in stats->degraded_selection rather than
  // failing the query.
  //
  // `trace`, when non-null, receives "plan.filter" / "plan.selection" spans
  // mirroring the timings written into `stats`.
  //
  // `candidates_out`, when non-null, receives the VFILTER candidate set the
  // filtered strategies (MV/HV/HB) planned over — even when selection then
  // fails — so BuildPlan can record it as the plan's positive dependency
  // set. Left empty for MN (which plans over the whole catalog without
  // filtering).
  Result<SelectionResult> Select(const CatalogSnapshot& catalog,
                                 const TreePattern& query,
                                 AnswerStrategy strategy, AnswerStats* stats,
                                 NfaReadScratch* scratch,
                                 const QueryLimits& limits = QueryLimits(),
                                 Trace* trace = nullptr,
                                 std::vector<int32_t>* candidates_out =
                                     nullptr) const;

  // Builds a complete plan against `catalog`: minimizes the query (the
  // paper assumes minimized patterns, §II), classifies the strategy and,
  // for view strategies, selects the view set. The plan records
  // catalog.version and its dependency set (plan_deps.h) for targeted cache
  // invalidation.
  //
  // When selection fails with NOT_ANSWERABLE and the failure did not stem
  // from a degradation, a non-null `tombstone_out` is filled with a
  // cacheable negative plan (not_answerable = true) carrying the query's
  // fingerprint; the error is still returned.
  Result<QueryPlan> BuildPlan(const CatalogSnapshot& catalog,
                              const TreePattern& query,
                              AnswerStrategy strategy,
                              NfaReadScratch* scratch,
                              const QueryLimits& limits = QueryLimits(),
                              Trace* trace = nullptr,
                              QueryPlan* tombstone_out = nullptr) const;
};

// Cache key of a (query, strategy) pair: the pattern's canonical structural
// key, so structurally equal patterns share a plan regardless of how they
// were built.
std::string PlanCacheKey(const TreePattern& query, AnswerStrategy strategy);

// A thread-safe LRU cache of shared immutable plans with dependency-
// tracked invalidation. The publish path calls OnCatalogPublish with the
// mutation's delta; the sweep eagerly retires exactly the entries the
// mutation could have changed (so dead plans never pin LRU capacity) and
// re-stamps the survivors to the new version. Lookups are an exact version
// match, which makes under-invalidation impossible by construction: an
// entry's version only advances through a sweep that proved it unaffected
// (or through Insert, with the version the plan was built against), and
// any other skew is a miss.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 1024);

  // Returns the cached plan for `key` when present and valid for
  // `catalog_version`; nullptr otherwise. An entry stamped below
  // `catalog_version` is dropped and counted in stats().stale_drops (the
  // lazy fallback for caches nobody sweeps); an entry stamped above it —
  // the caller pinned its snapshot before the latest publish — is a plain
  // stale miss for this reader but stays valid for current ones.
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key,
                                          uint64_t catalog_version);

  // Caches `plan` under `key`. Degraded plans are rejected (see
  // QueryPlan::plan_stats), as are plans built against a catalog older than
  // the last swept publication (their dependencies never saw the newer
  // mutations).
  void Insert(const std::string& key,
              std::shared_ptr<const QueryPlan> plan);

  // The targeted-invalidation hook: sweeps every entry against `delta`,
  // dropping the affected ones (counted by cause in dep_invalidations /
  // fingerprint_invalidations) and re-stamping survivors to `version`
  // (counted in survived_publications). Publishers must call this BEFORE
  // the successor snapshot becomes visible to readers, so a reader that
  // pins the new version can never pick up a retired plan.
  void OnCatalogPublish(uint64_t version, const CatalogDelta& delta);

  size_t size() const;
  size_t capacity() const { return capacity_; }

  // Up to `limit` cached plans from the most-recently-used end, for the
  // debug validator that re-runs VFILTER on surviving entries.
  std::vector<std::shared_ptr<const QueryPlan>> SampleEntries(
      size_t limit) const;

  // Every Lookup() is exactly one lookup and resolves to exactly one hit or
  // one miss (a stale drop is one flavor of miss), and every entry a
  // publish sweep examines is either invalidated for exactly one cause or
  // survives, so
  //   hits + misses == lookups,  stale_drops <= misses,  and
  //   dep_invalidations + fingerprint_invalidations + survived_publications
  //     == publish_entries_swept
  // hold by construction — asserted by ValidatePlanCacheStats and the churn
  // tests. HitRatio() is hits over lookups.
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;    // capacity evictions
    uint64_t stale_drops = 0;  // version-skew drops on lookup
    // Publish-sweep outcomes: entries retired because the delta hit their
    // positive dependency set (RemoveView / full swap), entries retired
    // because a published view admitted against their fingerprint
    // (AddView), entries that provably survived, and the total examined.
    uint64_t dep_invalidations = 0;
    uint64_t fingerprint_invalidations = 0;
    uint64_t survived_publications = 0;
    uint64_t publish_entries_swept = 0;
    double HitRatio() const {
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };
  Stats stats() const;

  // Engine-wide counters mirroring every stats_ increment (all non-null
  // when bound; publish_entries_swept has no mirror).
  struct MetricSinks {
    Counter* lookups = nullptr;
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* stale_drops = nullptr;
    Counter* evictions = nullptr;
    Counter* dep_invalidations = nullptr;
    Counter* fingerprint_invalidations = nullptr;
    Counter* survived_publications = nullptr;
  };
  void BindMetrics(const MetricSinks& sinks);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryPlan> plan;
    // The latest catalog version the plan is known valid for: the build
    // version at Insert, advanced by every publish sweep it survives.
    // Distinct from plan->catalog_version, which never changes.
    uint64_t version = 0;
  };

  mutable Mutex mu_;
  const size_t capacity_;  // set at construction, never changes
  std::list<Entry> lru_ XVR_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      XVR_GUARDED_BY(mu_);
  // Version of the last swept publication; Insert rejects older plans.
  uint64_t latest_version_ XVR_GUARDED_BY(mu_) = 0;
  Stats stats_ XVR_GUARDED_BY(mu_);
  MetricSinks metrics_ XVR_GUARDED_BY(mu_);
};

}  // namespace xvr

#endif  // XVR_CORE_PLANNER_H_
