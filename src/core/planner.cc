#include "core/planner.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "pattern/minimize.h"
#include "rewrite/compensate.h"
#include "selection/heuristic_selector.h"
#include "selection/minimum_selector.h"

namespace xvr {
namespace {

// The exhaustive set-cover phase degrades to the greedy heuristic when the
// DP's bitmask universe overflowed (RESOURCE_EXHAUSTED). A deadline expiry
// or a cancellation propagates as the failure it is.
bool ShouldDegradeExhaustive(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted;
}

// The filter step of the filtered strategies (MV, HV, HB), timed as
// plan.filter.
Result<FilterResult> FilterStep(const CatalogSnapshot& catalog,
                                const TreePattern& query, AnswerStats* stats,
                                NfaReadScratch* scratch,
                                const QueryLimits& limits, Trace* trace,
                                std::vector<int32_t>* candidates_out) {
  ScopedSpan filter_span(trace, "plan.filter");
  FilterResult filtered;
  XVR_ASSIGN_OR_RETURN(filtered,
                       catalog.vfilter.Filter(query, scratch, limits));
  stats->filter_micros = filter_span.StopMicros();
  stats->candidates_after_filter = filtered.candidates.size();
  if (candidates_out != nullptr) {
    *candidates_out = filtered.candidates;
  }
  return filtered;
}

}  // namespace

const char* AnswerStrategyName(AnswerStrategy strategy) {
  switch (strategy) {
    case AnswerStrategy::kBaseNodeIndex:
      return "BN";
    case AnswerStrategy::kBaseFullIndex:
      return "BF";
    case AnswerStrategy::kMinimumNoFilter:
      return "MN";
    case AnswerStrategy::kMinimumFiltered:
      return "MV";
    case AnswerStrategy::kHeuristicFiltered:
      return "HV";
    case AnswerStrategy::kHeuristicSmallFragments:
      return "HB";
  }
  return "?";
}

Result<AnswerStrategy> ParseAnswerStrategy(std::string_view name) {
  std::string names;
  for (const AnswerStrategy strategy : kAllAnswerStrategies) {
    if (name == AnswerStrategyName(strategy)) {
      return strategy;
    }
    names += names.empty() ? "" : "|";
    names += AnswerStrategyName(strategy);
  }
  return Status::InvalidArgument("strategy must be one of " + names);
}

Result<SelectionResult> Planner::Select(const CatalogSnapshot& catalog,
                                        const TreePattern& query,
                                        AnswerStrategy strategy,
                                        AnswerStats* stats,
                                        NfaReadScratch* scratch,
                                        const QueryLimits& limits,
                                        Trace* trace,
                                        std::vector<int32_t>* candidates_out)
    const {
  // Per-call resolver over the pinned snapshot. It captures `catalog` by
  // reference and never outlives this call; the caller keeps the snapshot
  // pinned for the whole query.
  const ViewLookup lookup = catalog.MakeLookup();
  switch (strategy) {
    case AnswerStrategy::kMinimumNoFilter: {
      const std::vector<int32_t> ids = catalog.view_ids();
      ScopedSpan selection_span(trace, "plan.selection");
      Result<SelectionResult> selection =
          SelectMinimum(query, ids, lookup, limits);
      stats->selection_micros = selection_span.StopMicros();
      stats->candidates_after_filter = ids.size();
      if (!selection.ok() && ShouldDegradeExhaustive(selection.status())) {
        // Degrade to the greedy heuristic. It consumes per-path candidate
        // lists, so run VFILTER now — sound even for MN, since every
        // catalog view is indexed and filtering only removes views that
        // could not cover the query anyway.
        stats->degraded_selection = true;
        ScopedSpan filter_span(trace, "plan.filter");
        FilterResult filtered;
        XVR_ASSIGN_OR_RETURN(
            filtered, catalog.vfilter.Filter(query, scratch, limits));
        stats->filter_micros = filter_span.StopMicros();
        stats->candidates_after_filter = filtered.candidates.size();
        ScopedSpan retry_span(trace, "plan.selection");
        HeuristicOptions options;
        options.limits = limits;
        selection = SelectHeuristic(query, filtered, lookup, options);
        stats->selection_micros += retry_span.StopMicros();
      }
      if (selection.ok()) {
        stats->covers_computed = selection->covers_computed;
        stats->views_selected = selection->views.size();
      }
      return selection;
    }
    case AnswerStrategy::kMinimumFiltered: {
      FilterResult filtered;
      XVR_ASSIGN_OR_RETURN(filtered,
                           FilterStep(catalog, query, stats, scratch, limits,
                                      trace, candidates_out));
      ScopedSpan selection_span(trace, "plan.selection");
      Result<SelectionResult> selection =
          SelectMinimum(query, filtered.candidates, lookup, limits);
      if (!selection.ok() && ShouldDegradeExhaustive(selection.status())) {
        stats->degraded_selection = true;
        HeuristicOptions options;
        options.limits = limits;
        selection = SelectHeuristic(query, filtered, lookup, options);
      }
      stats->selection_micros = selection_span.StopMicros();
      if (selection.ok()) {
        stats->covers_computed = selection->covers_computed;
        stats->views_selected = selection->views.size();
      }
      return selection;
    }
    case AnswerStrategy::kHeuristicFiltered:
    case AnswerStrategy::kHeuristicSmallFragments: {
      FilterResult filtered;
      XVR_ASSIGN_OR_RETURN(filtered,
                           FilterStep(catalog, query, stats, scratch, limits,
                                      trace, candidates_out));
      ScopedSpan selection_span(trace, "plan.selection");
      HeuristicOptions options;
      options.limits = limits;
      if (strategy == AnswerStrategy::kHeuristicSmallFragments) {
        options.order = HeuristicOptions::Order::kFragmentBytes;
        options.view_bytes = [&catalog](int32_t id) {
          return catalog.fragments.ViewByteSize(id);
        };
      }
      Result<SelectionResult> selection =
          SelectHeuristic(query, filtered, lookup, options);
      stats->selection_micros = selection_span.StopMicros();
      if (selection.ok()) {
        stats->covers_computed = selection->covers_computed;
        stats->views_selected = selection->views.size();
      }
      return selection;
    }
    case AnswerStrategy::kBaseNodeIndex:
    case AnswerStrategy::kBaseFullIndex:
      return Status::InvalidArgument(
          "base-data strategies do not select views");
  }
  return Status::Internal("unknown strategy");
}

Result<QueryPlan> Planner::BuildPlan(const CatalogSnapshot& catalog,
                                     const TreePattern& query,
                                     AnswerStrategy strategy,
                                     NfaReadScratch* scratch,
                                     const QueryLimits& limits,
                                     Trace* trace,
                                     QueryPlan* tombstone_out) const {
  QueryPlan plan;
  plan.query = query;
  plan.strategy = strategy;
  plan.catalog_version = catalog.version;
  MinimizePattern(&plan.query);
  if (IsBaseStrategy(strategy)) {
    plan.uses_views = false;
    plan.base_strategy = strategy == AnswerStrategy::kBaseNodeIndex
                             ? BaseStrategy::kNodeIndex
                             : BaseStrategy::kFullIndex;
    // Base plans read the document only: no catalog mutation can change
    // them, and the publish sweep keeps them across every delta.
    plan.deps.catalog_free = true;
    return plan;
  }
  plan.uses_views = true;
  // MN plans over the whole catalog without filtering; its positive set is
  // the selected views only, and the fingerprint handles additions.
  const bool filtered = strategy != AnswerStrategy::kMinimumNoFilter;
  std::vector<int32_t> candidates;
  Result<SelectionResult> selection =
      Select(catalog, plan.query, strategy, &plan.plan_stats, scratch,
             limits, trace, &candidates);
  if (!selection.ok()) {
    if (selection.status().code() == StatusCode::kNotAnswerable &&
        tombstone_out != nullptr && !plan.plan_stats.degraded_selection) {
      // Selection proved no view set answers the query (over the candidate
      // set for filtered strategies, over the whole catalog for MN).
      // Record the verdict as a cacheable negative plan: its fingerprint
      // retires it as soon as a view that could cover a leaf is published,
      // and removals can never make the query answerable.
      plan.not_answerable = true;
      plan.failure_message = selection.status().message();
      plan.deps = BuildPlanDependencies(plan.query, std::move(candidates),
                                        filtered);
      *tombstone_out = std::move(plan);
    }
    return selection.status();
  }
  plan.selection = std::move(selection).value();
  // The positive dependency set: the candidate set for filtered
  // strategies (selected views are a subset, unioned in as insurance),
  // the selected views alone for MN.
  // Bounded by the selection size, no blocking work (lint:deadline-ok).
  for (const SelectedView& selected : plan.selection.views) {
    candidates.push_back(selected.view_id);
  }
  plan.deps = BuildPlanDependencies(plan.query, std::move(candidates),
                                    filtered);
  // Hoist the compensating patterns into the plan: every execution of this
  // plan (and every plan-cache hit) reuses them instead of rebuilding them
  // per call inside the rewrite.
  plan.compensation = BuildPlanCompensation(plan.query, plan.selection);
  // Planning cost is inspectable on every later call that reuses this plan
  // — the per-call filter/selection_micros go to zero on a cache hit.
  plan.plan_stats.plan_filter_micros = plan.plan_stats.filter_micros;
  plan.plan_stats.plan_selection_micros = plan.plan_stats.selection_micros;
  return plan;
}

std::string PlanCacheKey(const TreePattern& query, AnswerStrategy strategy) {
  std::string key = query.CanonicalKey();
  key.push_back('\x01');
  key.append(AnswerStrategyName(strategy));
  return key;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(
    const std::string& key, uint64_t catalog_version) {
  MutexLock lock(&mu_);
  // Exactly one lookup, resolving below to exactly one hit or one miss —
  // the construction behind the hits + misses == lookups invariant.
  ++stats_.lookups;
  if (metrics_.lookups != nullptr) {
    metrics_.lookups->Add();
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (metrics_.misses != nullptr) {
      metrics_.misses->Add();
    }
    return nullptr;
  }
  Entry& entry = *it->second;
  if (entry.version != catalog_version) {
    // Version skew. Below the caller's version: a publish this cache was
    // never swept for (no publisher is wired to it) — drop the entry, the
    // lazy fallback. Above it: the caller pinned its snapshot before the
    // latest publish; the entry is proven valid for newer readers, so it
    // stays — only this reader misses. Either way one stale drop, one
    // miss.
    if (entry.version < catalog_version) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    ++stats_.stale_drops;
    ++stats_.misses;
    if (metrics_.stale_drops != nullptr) {
      metrics_.stale_drops->Add();
      metrics_.misses->Add();
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  if (metrics_.hits != nullptr) {
    metrics_.hits->Add();
  }
  return entry.plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const QueryPlan> plan) {
  if (capacity_ == 0) {
    return;
  }
  MutexLock lock(&mu_);
  // A degraded plan never enters the cache (see QueryPlan::plan_stats).
  if (plan->plan_stats.degraded_selection) {
    return;
  }
  // A plan built against a catalog older than the last swept publication
  // raced with a publish: its dependencies never saw the newer mutations,
  // so admitting it could under-invalidate. The builder simply re-plans.
  if (plan->catalog_version < latest_version_) {
    return;
  }
  const uint64_t version = plan->catalog_version;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    it->second->version = version;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(Entry{key, std::move(plan), version});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) {
      metrics_.evictions->Add();
    }
  }
}

void PlanCache::OnCatalogPublish(uint64_t version, const CatalogDelta& delta) {
  MutexLock lock(&mu_);
  latest_version_ = version;
  // The sweep runs on the (serialized) publish path, never on the query
  // hot path, so call-local scratch is fine.
  NfaReadScratch scratch;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const QueryPlan& plan = *it->plan;
    ++stats_.publish_entries_swept;
    bool invalidate = false;
    bool by_fingerprint = false;
    if (!plan.deps.catalog_free) {
      switch (delta.kind) {
        case CatalogDelta::Kind::kFull:
          invalidate = true;
          break;
        case CatalogDelta::Kind::kRemoveView:
          // Tombstones survive every removal: dropping views can never
          // make an unanswerable query answerable. A positive plan is
          // affected only when the removed id sits in its dependency set.
          invalidate = !plan.not_answerable &&
                       std::binary_search(plan.deps.views.begin(),
                                          plan.deps.views.end(),
                                          delta.view_id);
          break;
        case CatalogDelta::Kind::kAddView:
          // A view that could not become a VFILTER candidate for the
          // plan's query cannot change its candidate set, improve its
          // cover, or answer a query cached as unanswerable.
          if (PublicationAdmits(plan.deps, *delta.publication, &scratch)) {
            invalidate = true;
            by_fingerprint = true;
          }
          break;
      }
    }
    if (invalidate) {
      if (by_fingerprint) {
        ++stats_.fingerprint_invalidations;
        if (metrics_.fingerprint_invalidations != nullptr) {
          metrics_.fingerprint_invalidations->Add();
        }
      } else {
        ++stats_.dep_invalidations;
        if (metrics_.dep_invalidations != nullptr) {
          metrics_.dep_invalidations->Add();
        }
      }
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      // Proven unaffected: valid for the new catalog too. Re-stamping is
      // what keeps exact-match lookups hitting across the publish.
      it->version = version;
      ++stats_.survived_publications;
      if (metrics_.survived_publications != nullptr) {
        metrics_.survived_publications->Add();
      }
      ++it;
    }
  }
}

size_t PlanCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

std::vector<std::shared_ptr<const QueryPlan>> PlanCache::SampleEntries(
    size_t limit) const {
  MutexLock lock(&mu_);
  std::vector<std::shared_ptr<const QueryPlan>> out;
  out.reserve(std::min(limit, lru_.size()));
  for (const Entry& entry : lru_) {
    if (out.size() >= limit) {
      break;
    }
    out.push_back(entry.plan);
  }
  return out;
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void PlanCache::BindMetrics(const MetricSinks& sinks) {
  MutexLock lock(&mu_);
  metrics_ = sinks;
}

}  // namespace xvr
