#ifndef XVR_SELECTION_ANSWERABILITY_H_
#define XVR_SELECTION_ANSWERABILITY_H_

// The multiple view/query answerability criterion (paper §IV-A):
//
//     a view set V answers Q  iff  ⋃_{V ∈ V} LC(V, Q) = LF(Q),
//
// where LF(Q) = LEAF(Q) ∪ {Δ}. Common types shared by the two selectors.

#include <functional>
#include <vector>

#include "selection/leaf_cover.h"

namespace xvr {

// Resolves a view id to its pattern (owned by the caller's catalog).
// Returns nullptr for unknown ids.
using ViewLookup = std::function<const TreePattern*(int32_t)>;

struct SelectedView {
  int32_t view_id = -1;
  LeafCover cover;
};

struct SelectionResult {
  // The chosen views. At least one covers Δ (it becomes the rewriter's
  // primary view).
  std::vector<SelectedView> views;
  // Number of leaf covers (homomorphisms) computed — the cost the paper's
  // lookup experiments measure (Fig. 9).
  int covers_computed = 0;

  // Index into `views` of the first view with covers_answer.
  int PrimaryIndex() const {
    for (size_t i = 0; i < views.size(); ++i) {
      if (views[i].cover.covers_answer) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

// True iff the union of covers equals LF(Q).
[[nodiscard]] bool CoversQuery(const LeafUniverse& universe,
                 const std::vector<SelectedView>& views);

// Drops views whose removal keeps the union complete (makes a set minimal —
// the final step of Algorithm 2). Preference: larger covers are kept.
void RemoveRedundantViews(const LeafUniverse& universe,
                          std::vector<SelectedView>* views);

}  // namespace xvr

#endif  // XVR_SELECTION_ANSWERABILITY_H_
