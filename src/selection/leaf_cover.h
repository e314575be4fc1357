#ifndef XVR_SELECTION_LEAF_COVER_H_
#define XVR_SELECTION_LEAF_COVER_H_

// Leaf covers LC(V, Q) — the answerability machinery of §IV-A.
//
// Given a homomorphism h: V -> Q (so Q ⊑ V by the sound test):
//   * Δ ∈ LC(V,Q)   iff h(RET(V)) is an ancestor-or-self of RET(Q): the
//     query result can be extracted from V's fragments.
//   * leaf n ∈ LC   iff n is a descendant-or-self of h(RET(V)) (its
//     predicate is checkable inside the materialized fragments), or the
//     root-to-n predicate path of Q "holds on V": some view node v maps onto
//     n and the root-to-v path of V is equivalent to the root-to-n path of Q
//     (so every fragment root of V already witnessed the predicate).
//
// Different homomorphisms yield different covers; ComputeLeafCover tries
// every feasible image of RET(V) and returns the best cover (answer coverage
// first, then the number of covered leaves).

#include <optional>

#include "pattern/homomorphism.h"
#include "pattern/path_pattern.h"
#include "pattern/tree_pattern.h"

namespace xvr {

struct LeafCover {
  // Δ ∈ LC(V,Q).
  bool covers_answer = false;
  // Covered leaves, as indices into Decompose(query).leaves order — i.e.
  // leaf node indices of Q (pattern node ids).
  std::vector<TreePattern::NodeIndex> leaves;
  // The witnessing homomorphism and its answer image.
  NodeMapping mapping;
  TreePattern::NodeIndex mapped_answer = TreePattern::kNoNode;
};

// Returns nullopt when no homomorphism view -> query exists (LC = ∅).
[[nodiscard]] std::optional<LeafCover> ComputeLeafCover(
    const TreePattern& view, const TreePattern& query);

// LF(Q) = LEAF(Q) ∪ {Δ} as a bitmask helper: bit i covers query leaf
// `leaves[i]`, the highest bit covers Δ.
struct LeafUniverse {
  std::vector<TreePattern::NodeIndex> leaves;  // LEAF(Q)
  uint64_t full_mask = 0;                      // all leaves + Δ

  explicit LeafUniverse(const TreePattern& query);

  uint64_t MaskOf(const LeafCover& cover) const;
  int LeafBit(TreePattern::NodeIndex leaf) const;
  uint64_t answer_bit() const { return uint64_t{1} << leaves.size(); }
};

}  // namespace xvr

#endif  // XVR_SELECTION_LEAF_COVER_H_
