#ifndef XVR_SELECTION_MINIMUM_SELECTOR_H_
#define XVR_SELECTION_MINIMUM_SELECTOR_H_

// Minimum multiple-view selection (paper §IV-B, "Finding a minimal
// rewriting" / the MN and MV strategies of §VI).
//
// Computes a leaf cover for every candidate view (the expensive
// homomorphism step the paper measures) and then finds a view set of
// minimum cardinality whose covers union to LF(Q). The cover union lives in
// a small bitmask universe (|LEAF(Q)|+1 bits), so an exact dynamic program
// over subsets of LF(Q) — O(n · 2^|LF|) — replaces the naive O(2^n)
// subset enumeration without changing the result.

#include "common/deadline.h"
#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "selection/answerability.h"

namespace xvr {

// `candidate_ids`: the views to consider (all views for MN, the VFILTER
// output for MV). Returns NOT_ANSWERABLE when no subset covers LF(Q).
//
// Exhaustive selection is the one exponential phase of the pipeline, so it
// is fully interruptible: `limits.deadline` is honored between cover
// computations and every few thousand DP states (DEADLINE_EXCEEDED /
// CANCELLED), and a query whose leaf universe exceeds the DP's 20-bit
// capacity returns RESOURCE_EXHAUSTED instead of aborting. Callers degrade
// both to the greedy heuristic (see core/planner.cc).
Result<SelectionResult> SelectMinimum(
    const TreePattern& query, const std::vector<int32_t>& candidate_ids,
    const ViewLookup& lookup, const QueryLimits& limits = QueryLimits());

}  // namespace xvr

#endif  // XVR_SELECTION_MINIMUM_SELECTOR_H_
