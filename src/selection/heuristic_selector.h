#ifndef XVR_SELECTION_HEURISTIC_SELECTOR_H_
#define XVR_SELECTION_HEURISTIC_SELECTOR_H_

// Heuristic multiple-view selection (paper Algorithm 2 / the HV strategy).
//
// Walks the per-query-path lists LIST(P_i) produced by VFILTER: for each
// still-uncovered query leaf, the candidate views whose longest containing
// path is largest are tried first — a long view path means a more selective
// view with smaller materialized fragments, which is what makes HV beat MV
// in Fig. 8. Homomorphisms are computed lazily, once per touched view, so
// the worst case scans each candidate view once (O(|V'|)). The result is a
// minimal (not necessarily minimum) view set: a final pass removes
// redundant selections.

#include "common/deadline.h"
#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "selection/answerability.h"
#include "vfilter/vfilter.h"

namespace xvr {

// `filtered` must come from VFilter::Filter(query) (or a compatible
// construction); `lookup` resolves candidate ids to patterns. Uncovered
// leaves are taken in leaf order (the paper picks one at random). The
// greedy walk is near-linear, so unlike SelectMinimum there is no budget to
// blow: only the deadline and the cancel token of `limits` apply, checked
// between cover computations.
Result<SelectionResult> SelectHeuristic(
    const TreePattern& query, const FilterResult& filtered,
    const ViewLookup& lookup, const QueryLimits& limits = QueryLimits());

}  // namespace xvr

#endif  // XVR_SELECTION_HEURISTIC_SELECTOR_H_
