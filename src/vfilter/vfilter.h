#ifndef XVR_VFILTER_VFILTER_H_
#define XVR_VFILTER_VFILTER_H_

// VFILTER (paper §III): indexes the decomposed path patterns of a view set,
// raw and normalized (ForEachPathForm), in a prefix-shared NFA and, per
// query, returns the candidate views that may contain the query
// (Algorithm 1, VIEWFILTERING).
//
// Guarantee (Proposition 3.1 + §III-C): a view with a homomorphism to the
// query is never filtered (no false negatives w.r.t. homomorphism-based
// containment, the test used by selection); views that merely share all
// their path patterns with the query may survive as false positives —
// Fig. 10 measures how rare that is.
//
// Besides the candidate set, Filter() produces the per-query-path sorted
// lists LIST(P_i) of (view, longest-accepting-path-length) pairs consumed by
// the heuristic selector (Algorithm 2).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "pattern/normalize.h"
#include "pattern/path_pattern.h"
#include "pattern/tree_pattern.h"
#include "vfilter/nfa.h"

namespace xvr {

// VFILTER's rule for the forms of a decomposed path (§III-C): the raw path,
// plus its normalized form when normalization changes it. AddView indexes
// every form of a view path under the path's id, and Filter reads every
// form of a query path: a view path can accept the raw form by a prefix
// containment that normalization obscures (the // pushed in front of a
// wildcard breaks child-edge homomorphisms), and the normalized form by an
// Example 3.2 equivalence. Calls `fn` on the raw form first.
template <typename Fn>
void ForEachPathForm(const PathPattern& path, Fn&& fn) {
  fn(path);
  const PathPattern normalized = NormalizePath(path);
  if (!(normalized == path)) {
    fn(normalized);
  }
}

// The token strings Filter reads for query path `path`, one per form,
// appended to `out`.
void AppendStructuralReads(const PathPattern& path,
                           std::vector<std::vector<int32_t>>* out);

// LIST(P_i) entry: a candidate view and the length (number of labels) of its
// longest path pattern that contains P_i.
struct ViewLengthEntry {
  int32_t view_id = -1;
  int32_t length = 0;
};

// One slot of a VFilter's view registry: the view indexed there and its
// |D(V)|, or view id -1 once RemoveView has freed the slot.
struct ViewSlot {
  int32_t view_id = -1;
  int32_t num_paths = 0;
};

struct FilterResult {
  // Views for which every path pattern of D(V) contains some path of D(Q).
  std::vector<int32_t> candidates;
  // Parallel to decomposition.paths: LIST(P_i) sorted by length descending,
  // restricted to candidate views (Algorithm 1 lines 22-26).
  std::vector<std::vector<ViewLengthEntry>> lists;
  // The query decomposition (needed again by selection).
  Decomposition decomposition;
};

class VFilter {
 public:
  // Indexes `view`. `view_id` must be unique and non-negative. The view
  // gets the slot RemoveView freed last, or a new one.
  void AddView(int32_t view_id, const TreePattern& view);

  // Logically removes a view (its accept entries disappear; trie states are
  // retained) and frees its slot.
  void RemoveView(int32_t view_id);

  // Runs VIEWFILTERING(Q, V, A). Thread-safe: the index is read-only here
  // and all runtime state lives in `scratch` (one per thread; any filter
  // may share it). Per accept entry the cost is one access to the entry's
  // slot record in the scratch.
  FilterResult Filter(const TreePattern& query,
                      NfaReadScratch* scratch) const;

  // Convenience overload with call-local scratch.
  FilterResult Filter(const TreePattern& query) const {
    NfaReadScratch scratch;
    return Filter(query, &scratch);
  }

  // Limit-aware variant: honors the deadline/cancel token between query
  // paths (each path is one bounded NFA read) and the candidate-set budget
  // at the end. Fails with DEADLINE_EXCEEDED / CANCELLED / RESOURCE_EXHAUSTED
  // accordingly; with default limits it never fails.
  Result<FilterResult> Filter(const TreePattern& query, NfaReadScratch* scratch,
                              const QueryLimits& limits) const;

  // --- statistics -----------------------------------------------------------

  size_t num_views() const { return slots_.size() - free_slots_.size(); }
  size_t num_states() const { return nfa_.num_states(); }
  size_t num_transitions() const { return nfa_.num_transitions(); }
  // The automaton's size, the measure of Fig. 11: states + transitions +
  // accept entries.
  size_t automaton_size() const {
    return nfa_.num_states() + nfa_.num_transitions() +
           nfa_.num_accept_entries();
  }
  const PathNfa& nfa() const { return nfa_; }
  PathNfa& mutable_nfa() { return nfa_; }

  // Number of distinct path patterns of an indexed view (|D(V)|), or -1.
  int32_t NumPathsOf(int32_t view_id) const;

  // --- registry -------------------------------------------------------------
  //
  // Each indexed view holds a dense slot, and its accept entries carry it,
  // so Filter's bookkeeping is an array indexed by slot. The slot table is
  // the only registry; nothing on the query path maps ids to slots.

  // The view's slot, or -1 when it is not indexed. Scans the slot table.
  int32_t SlotOf(int32_t view_id) const;
  const std::vector<ViewSlot>& slots() const { return slots_; }
  // Slots freed by RemoveView; AddView reuses the last one first.
  const std::vector<int32_t>& free_slots() const { return free_slots_; }
  // (view id, |D(V)|) of every indexed view, sorted by id.
  std::vector<std::pair<int32_t, int32_t>> ViewPathCounts() const;

 private:
  PathNfa nfa_;
  std::vector<ViewSlot> slots_;
  std::vector<int32_t> free_slots_;
};

}  // namespace xvr

#endif  // XVR_VFILTER_VFILTER_H_
