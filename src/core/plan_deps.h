#ifndef XVR_CORE_PLAN_DEPS_H_
#define XVR_CORE_PLAN_DEPS_H_

// Per-plan dependency tracking for targeted PlanCache invalidation.
//
// A cached QueryPlan records what it read from the catalog in two forms:
//
//  - the positive dependency set: the view ids VFILTER produced as
//    candidates (plus the views actually selected into the rewrite). A
//    RemoveView can only change the plan if it drops one of these ids —
//    removing a non-candidate leaves the FilterResult, and therefore the
//    selection, byte-identical (VFILTER candidacy is monotone in the view
//    set).
//
//  - the negative fingerprint: the query's per-leaf token streams (exactly
//    the strings Filter read into the NFA) plus a label bloom over them.
//    An AddView can only change the plan if the new view would itself have
//    become a VFILTER candidate for the query; PublicationAdmits tests
//    that without re-running the full filter, by reading the cached
//    streams through a one-view NFA built at publish time. This covers the
//    no-candidate case too: a query cached as not-answerable stays
//    not-answerable until a view whose every path accepts one of its leaf
//    paths is published.
//
// Soundness (never under-invalidates):
//  - Proposition 3.1 gives: homomorphism to the query => VFILTER
//    candidate. Contrapositive: a view PublicationAdmits rejects has no
//    homomorphism, so it can neither enter the candidate set nor cover any
//    query leaf — it cannot change a filtered plan's candidates, improve a
//    minimum cover, or make an unanswerable query answerable.
//  - The one-view NFA indexes every form of the view's paths exactly like
//    VFilter::AddView, and the cached streams are exactly what Filter
//    reads (both through ForEachPathForm), so the level-2 test reproduces
//    real candidacy. The level-1 label bloom only rejects when some view
//    path carries a literal label the query streams never mention — such
//    a path can accept no query stream (a label transition consumes only
//    its own token), so bloom rejects are exact, never optimistic.

#include <cstdint>
#include <memory>
#include <vector>

#include "pattern/tree_pattern.h"
#include "vfilter/nfa.h"

namespace xvr {

// What one cached plan read from the catalog. Immutable once built (lives
// inside the shared immutable QueryPlan).
struct PlanDependencies {
  // Base-strategy plans: they read no views at all and survive every
  // publication, including a full catalog swap.
  bool catalog_free = false;
  // True when `views` is the full VFILTER candidate set (MV/HV); false
  // when it is only the selected set (MN, which never ran the filter).
  bool filtered = false;
  // The positive dependency set, sorted ascending, deduplicated.
  std::vector<int32_t> views;
  // The negative fingerprint: per decomposed query path, the exact token
  // streams Filter read (one per form, see ForEachPathForm).
  std::vector<std::vector<int32_t>> leaf_streams;
  // Bloom over every literal label token in leaf_streams (bit token % 64).
  uint64_t label_mask = 0;
};

// Builds the dependency record for a plan of `query` (the plan's possibly
// minimized pattern — the one Filter actually read). `views` is the
// positive set (candidates and/or selected ids; sorted and deduplicated
// here).
PlanDependencies BuildPlanDependencies(const TreePattern& query,
                                       std::vector<int32_t> views,
                                       bool filtered);

// The publish-time summary of one added view: a single-view VFILTER NFA
// plus per-path required-literal-label blooms. Built once per AddView*,
// shared read-only with the sweep.
struct ViewPublication {
  int32_t view_id = -1;
  int32_t num_paths = 0;  // |D(V)|
  // Per raw path of D(V): the literal labels it must consume (bit
  // token % 64). A plan whose streams lack one of them cannot be accepted
  // by that path.
  std::vector<uint64_t> path_label_masks;
  // Every form of each of the view's paths under the path's id — the same
  // indexing VFilter::AddView performs.
  PathNfa nfa;
};

// Summarizes `view` (the minimized pattern entering the catalog) for the
// publish sweep.
ViewPublication MakeViewPublication(int32_t view_id, const TreePattern& view);

// Could publishing `pub` have changed a plan with dependencies `deps`?
// True exactly when the view would be a VFILTER candidate for the plan's
// query (conservatively true when the view has 64+ paths). False for
// catalog-free plans.
bool PublicationAdmits(const PlanDependencies& deps,
                       const ViewPublication& pub, NfaReadScratch* scratch);

// The affected-view delta of one catalog publication, handed to
// PlanCache::OnCatalogPublish by the publish path.
struct CatalogDelta {
  enum class Kind {
    kFull,        // wholesale swap (LoadState): retire everything
    kAddView,     // one view added: fingerprint-test every entry
    kRemoveView,  // one view removed: positive-set test every entry
  };
  Kind kind = Kind::kFull;
  int32_t view_id = -1;  // kRemoveView
  std::shared_ptr<const ViewPublication> publication;  // kAddView

  static CatalogDelta Full() { return CatalogDelta{}; }
  static CatalogDelta Added(std::shared_ptr<const ViewPublication> pub) {
    CatalogDelta delta;
    delta.kind = Kind::kAddView;
    delta.view_id = pub->view_id;
    delta.publication = std::move(pub);
    return delta;
  }
  static CatalogDelta Removed(int32_t view_id) {
    CatalogDelta delta;
    delta.kind = Kind::kRemoveView;
    delta.view_id = view_id;
    return delta;
  }
};

}  // namespace xvr

#endif  // XVR_CORE_PLAN_DEPS_H_
