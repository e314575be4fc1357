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

struct HeuristicOptions {
  // How candidate views are ordered per uncovered leaf:
  //  * kPathLength — the paper's Algorithm 2: longest accepting view path
  //    first (a proxy for selective views with small fragments);
  //  * kFragmentBytes — the cost-model variant §IV-B sketches but omits:
  //    smallest materialized fragments first (requires `view_bytes`).
  enum class Order { kPathLength, kFragmentBytes };
  Order order = Order::kPathLength;
  // Materialized byte size per view id; consulted for kFragmentBytes.
  std::function<size_t(int32_t)> view_bytes;
  // Deadline / cancellation, honored between cover computations. The greedy
  // walk is near-linear, so unlike SelectMinimum there is no budget to blow
  // — only the deadline and the cancel token apply.
  QueryLimits limits;
};

// `filtered` must come from VFilter::Filter(query) (or a compatible
// construction); `lookup` resolves candidate ids to patterns. Uncovered
// leaves are taken in leaf order (the paper picks one at random).
Result<SelectionResult> SelectHeuristic(const TreePattern& query,
                                        const FilterResult& filtered,
                                        const ViewLookup& lookup,
                                        const HeuristicOptions& options = {});

}  // namespace xvr

#endif  // XVR_SELECTION_HEURISTIC_SELECTOR_H_
