#ifndef XVR_CORE_CATALOG_H_
#define XVR_CORE_CATALOG_H_

// The immutable view-catalog snapshot behind online catalog evolution.
//
// A CatalogSnapshot bundles everything that changes when a view is added or
// dropped — the view patterns, the quarantine set, the VFILTER NFA and the
// fragment store — into one value that is frozen the moment it is
// published. Every serving view is fully materialized: the fragment store
// holds fragments for exactly the non-quarantined views. The engine
// publishes snapshots RCU-style as a shared_ptr behind a mutex whose
// critical section is one pointer copy (not std::atomic<shared_ptr>; see
// Engine::catalog_): readers pin exactly one snapshot per query (in their
// ExecutionContext) and answer entirely against it, so a concurrent
// AddView/RemoveView can never tear a read or free a view mid-join; writers
// copy the current snapshot, mutate the copy under the engine's writer
// mutex, and swap it in with a bumped version. Each publish also hands the
// PlanCache a CatalogDelta (core/plan_deps.h) describing what changed, so
// the cache invalidates only the plans that actually depend on the delta
// and re-stamps the rest.
//
// Copies are cheap: the per-view and per-state maps — the view patterns,
// the fragment store's views and the VFILTER NFA's states — are
// copy-on-write tables (common/cow_table.h). A successor snapshot shares
// their chunks of 64 entries with its predecessor and clones only the
// chunks its mutation writes, so a publication copies a few dozen chunk
// pointers plus VFILTER's small slot and dispatch arrays, never a pattern,
// a fragment or an NFA state it does not change.

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/cow_table.h"
#include "pattern/tree_pattern.h"
#include "selection/answerability.h"
#include "storage/fragment_store.h"
#include "vfilter/vfilter.h"

namespace xvr {

struct CatalogSnapshot {
  // All known view patterns by view id, including quarantined ones (kept
  // for diagnosis; excluded from everything selection-facing).
  CowTable<TreePattern> views;
  // Views LoadState dropped from serving (corrupt fragments).
  std::unordered_set<int32_t> quarantined_views;
  VFilter vfilter;
  FragmentStore fragments;
  int32_t next_view_id = 0;
  // Monotonically increasing; bumped on every published mutation. The
  // PlanCache keys entry freshness on this: the publish sweep re-stamps
  // unaffected entries to the new version and drops the rest.
  uint64_t version = 0;

  const TreePattern* view(int32_t id) const { return views.Find(id); }

  bool IsViewQuarantined(int32_t id) const {
    return quarantined_views.count(id) > 0;
  }

  // Serving view ids (quarantined excluded), sorted ascending.
  std::vector<int32_t> view_ids() const;

  // Quarantined ids, sorted ascending.
  std::vector<int32_t> quarantined_view_ids() const;

  // Resolver handed to the selectors: quarantined views resolve to nullptr
  // so no selector ever picks them, even from a stale candidate list. The
  // returned callable captures `this` and must not outlive the snapshot —
  // callers hold the snapshot pinned for the duration of the query.
  ViewLookup MakeLookup() const;
};

// The pinned handle readers carry: shared ownership keeps every view the
// query may touch alive until the last in-flight reader drops it, however
// many mutations are published meanwhile.
using CatalogRef = std::shared_ptr<const CatalogSnapshot>;

}  // namespace xvr

#endif  // XVR_CORE_CATALOG_H_
