#ifndef XVR_REWRITE_REWRITER_H_
#define XVR_REWRITE_REWRITER_H_

// Equivalent rewriting using multiple views (paper §V).
//
// Pipeline, given a query Q and a selected view set (selection module):
//   1. Refinement ("pushing selection"): every fragment of every selected
//      view is checked against the compensating predicate — the subtree of Q
//      rooted at the view's anchor q_i* — and against the root path of Q up
//      to q_i* (verified on the fragment's extended Dewey code via the FST,
//      Example 2.1/5.1: no base data access).
//   2. Holistic join: fragments of different views are combined only when
//      their Dewey codes assign the same concrete document position (code
//      prefix) to every shared skeleton node of Q.
//   3. Extraction: the answer is pulled out of the primary view's surviving
//      fragments with the extraction pattern. The primary view is walked
//      once: its refinement in step 1 runs the extraction pattern, which
//      embeds at the fragment root iff the refinement does, and keeps the
//      answer nodes; step 3 emits those of the join's survivors.
//
// The result is the set of extended Dewey codes of the query answers, which
// the end-to-end tests compare against direct evaluation on the base data.

#include <vector>

#include "common/arena.h"
#include "common/deadline.h"
#include "common/status.h"
#include "obs/trace.h"
#include "pattern/tree_pattern.h"
#include "rewrite/compensate.h"
#include "rewrite/prefix_join.h"
#include "selection/answerability.h"
#include "storage/fragment_store.h"
#include "xml/dewey.h"
#include "xml/fst.h"

namespace xvr {

struct RewriteStats {
  size_t fragments_scanned = 0;
  size_t fragments_after_refinement = 0;
  size_t join_survivors = 0;
};

// Per-query memory for the rewrite pipeline (the hot-path memory
// architecture's execution slice). Owned by the ExecutionContext, one per
// thread; the rewrite calls Reset() on entry. The arena carries the per-query
// transients (join tables, signature stores, recursion scratch); the named
// buffers are reusable pre-sized scratch for the per-fragment inner loops
// — after warm-up a steady query stream allocates nothing here.
struct RewriteScratch {
  Arena arena;
  // FST label-decode buffer (one fragment root code at a time; the next
  // code of the same view decodes past their common prefix).
  std::vector<LabelId> labels;
  // Flat path-assignment buffer for MatchPathOnLabels, and the label path
  // it was last matched on.
  AssignmentSet assignments;
  std::vector<LabelId> matched_labels;
  // Epoched embedding memo + frontier buffers for the anchored walks.
  FragmentScratch fragment;
  // Extraction output buffer (fragment node indices).
  std::vector<int32_t> extract_nodes;

  // Rewinds the arena (retaining its chunks). The named buffers size
  // themselves in use and keep their capacity.
  void Reset() { arena.Reset(); }
};

struct RewriteOptions {
  // Deadline/cancellation (checked inside the refinement and join loops)
  // and resource budgets: limits.max_join_fragments bounds how many refined
  // fragments a single view may feed the holistic join, and
  // limits.max_result_codes bounds the answer cardinality (the codes
  // emitted, not the answer nodes refinement keeps for the join's primary
  // fragments). Blown budgets return RESOURCE_EXHAUSTED with the work done
  // so far accounted in RewriteStats.
  QueryLimits limits;
  // When non-null, receives one span per pipeline phase: "execute.refine",
  // "execute.join", "execute.extract".
  Trace* trace = nullptr;
  // Per-query memory reused across calls (the ExecutionContext's). When
  // null, the call allocates its own scratch and frees it on return.
  RewriteScratch* scratch = nullptr;
  // Plan-hoisted compensating patterns (refinement/anchor-path per view,
  // extraction for the primary), built once by the planner so plan-cache
  // hits rewrite with zero pattern construction. When null, the call builds
  // its own with BuildPlanCompensation. A non-null value must be
  // positionally parallel to the selection passed in; one that is not is
  // INTERNAL.
  const PlanCompensation* compensation = nullptr;
};

// Answers `query` from materialized fragments only. `fst` must be the
// transducer of the document the fragments were materialized from.
Result<std::vector<DeweyCode>> AnswerWithViews(
    const TreePattern& query, const SelectionResult& selection,
    const FragmentStore& store, const Fst& fst,
    RewriteStats* stats = nullptr, const RewriteOptions& options = {});

}  // namespace xvr

#endif  // XVR_REWRITE_REWRITER_H_
