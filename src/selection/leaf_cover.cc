#include "selection/leaf_cover.h"

#include <algorithm>

#include "common/logging.h"
#include "pattern/containment.h"
#include "pattern/normalize.h"

namespace xvr {
namespace {

// The chain of `p` from just below `anchor` down to `to`, re-rooted under a
// fresh wildcard anchor (so two chains can be compared by homomorphism as
// patterns anchored at the same document node). Value predicates of the
// chain nodes are preserved; the anchor's own predicate is not (it belongs
// to the upper path).
TreePattern ChainPattern(const TreePattern& p, TreePattern::NodeIndex anchor,
                         TreePattern::NodeIndex to) {
  TreePattern out;
  TreePattern::NodeIndex cur = out.AddRoot(kAnchorLabel, Axis::kChild);
  const std::vector<TreePattern::NodeIndex> path = p.PathFromRoot(to);
  bool below = false;
  for (TreePattern::NodeIndex n : path) {
    if (!below) {
      if (n == anchor) {
        below = true;
      }
      continue;
    }
    cur = out.AddChild(cur, p.axis(n), p.label(n));
    if (p.node(n).value_pred.has_value()) {
      out.SetValuePredicate(cur, *p.node(n).value_pred);
    }
  }
  out.SetAnswer(cur);
  return out;
}

// True iff the view chain (w -> v) anchored at a node implies the query
// chain (y -> n) anchored at the same node: every document node satisfying
// the view branch satisfies the query branch. Tested by homomorphism from
// the query chain to the view chain after normalization (complete for
// paths, Theorem 3.1).
bool BranchImplied(const TreePattern& query, TreePattern::NodeIndex y,
                   TreePattern::NodeIndex n, const TreePattern& view,
                   TreePattern::NodeIndex w, TreePattern::NodeIndex v) {
  TreePattern query_chain = ChainPattern(query, y, n);
  TreePattern view_chain = ChainPattern(view, w, v);
  if (query_chain.size() <= 1) {
    return false;  // n not strictly below y — cannot happen for leaves
  }
  NormalizeTreePattern(&query_chain);
  NormalizeTreePattern(&view_chain);
  return ExistsHomomorphism(query_chain, view_chain);
}

// Deepest common node of the root paths to `a` and `b`.
TreePattern::NodeIndex DeepestCommon(const TreePattern& p,
                                     TreePattern::NodeIndex a,
                                     TreePattern::NodeIndex b) {
  const auto pa = p.PathFromRoot(a);
  const auto pb = p.PathFromRoot(b);
  TreePattern::NodeIndex common = p.root();
  for (size_t i = 0; i < pa.size() && i < pb.size(); ++i) {
    if (pa[i] != pb[i]) {
      break;
    }
    common = pa[i];
  }
  return common;
}

// The rewriter can only verify structure (labels + axes) above the fragment
// roots from the encodings; value predicates on the root -> q_star path must
// therefore be mirrored by the view itself: some view node must map onto the
// predicated query node carrying an equal predicate. (Homomorphism label
// compatibility already enforces predicate equality when the view node has
// one.)
bool UpperPredicatesMirrored(const TreePattern& view,
                             const TreePattern& query,
                             const NodeMapping& mapping,
                             TreePattern::NodeIndex q_star) {
  for (TreePattern::NodeIndex b : query.PathFromRoot(q_star)) {
    if (b == q_star) {
      continue;  // q_star's own predicate is checked inside the fragments
    }
    if (!query.node(b).value_pred.has_value()) {
      continue;
    }
    bool mirrored = false;
    for (size_t vi = 0; vi < view.size() && !mirrored; ++vi) {
      if (mapping[vi] == b &&
          view.node(static_cast<TreePattern::NodeIndex>(vi))
              .value_pred.has_value()) {
        mirrored = true;  // equality was enforced by the homomorphism
      }
    }
    if (!mirrored) {
      return false;
    }
  }
  return true;
}

}  // namespace

LeafUniverse::LeafUniverse(const TreePattern& query)
    : leaves(query.Leaves()) {
  XVR_CHECK(leaves.size() < 63) << "query has too many leaves";
  full_mask = (uint64_t{1} << (leaves.size() + 1)) - 1;
}

int LeafUniverse::LeafBit(TreePattern::NodeIndex leaf) const {
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i] == leaf) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

uint64_t LeafUniverse::MaskOf(const LeafCover& cover) const {
  uint64_t mask = 0;
  for (TreePattern::NodeIndex leaf : cover.leaves) {
    const int bit = LeafBit(leaf);
    if (bit >= 0) {
      mask |= uint64_t{1} << bit;
    }
  }
  if (cover.covers_answer) {
    mask |= answer_bit();
  }
  return mask;
}

std::optional<LeafCover> ComputeLeafCover(const TreePattern& view,
                                          const TreePattern& query) {
  HomomorphismMatcher matcher(view, query);
  if (!matcher.Exists()) {
    return std::nullopt;
  }
  const TreePattern::NodeIndex view_answer = view.answer();
  const std::vector<TreePattern::NodeIndex> query_leaves = query.Leaves();

  std::optional<LeafCover> best;
  // Try every feasible image of RET(V); each gives a (possibly) different
  // cover.
  for (TreePattern::NodeIndex q_star : matcher.ImageCandidates(view_answer)) {
    std::optional<NodeMapping> mapping =
        matcher.ExtractWith(view_answer, q_star);
    if (!mapping.has_value()) {
      continue;
    }
    if (!UpperPredicatesMirrored(view, query, *mapping, q_star)) {
      continue;  // an unverifiable predicate sits above the fragments
    }
    LeafCover cover;
    cover.mapping = *mapping;
    cover.mapped_answer = q_star;
    cover.covers_answer = query.IsAncestorOrSelf(q_star, query.answer());

    for (TreePattern::NodeIndex leaf : query_leaves) {
      // (a) the leaf's matches live inside the materialized fragments.
      if (query.IsAncestorOrSelf(q_star, leaf)) {
        cover.leaves.push_back(leaf);
        continue;
      }
      // (b) the leaf's predicate branch "holds on V": the query's branch to
      // the leaf diverges from the answer path at z; some view node v maps
      // onto the leaf with the view's own divergence node w (where V's
      // paths to v and to RET(V) split) mapping exactly onto z, and the
      // view branch w->v implies the query branch z->leaf when anchored at
      // the same document node. Anchoring at z exactly is what ties the
      // view's witness to the fragment's own root path (a higher anchor
      // would let the witness hang off a different subtree — Example 4.2's
      // trap).
      const TreePattern::NodeIndex z = DeepestCommon(query, leaf, q_star);
      bool held = false;
      for (size_t vi = 0; vi < view.size() && !held; ++vi) {
        const auto vn = static_cast<TreePattern::NodeIndex>(vi);
        const auto& candidates = matcher.ImageCandidates(vn);
        if (std::find(candidates.begin(), candidates.end(), leaf) ==
            candidates.end()) {
          continue;
        }
        const TreePattern::NodeIndex w = DeepestCommon(view, vn, view_answer);
        if (!matcher
                 .ExtractWithPins(
                     {{view_answer, q_star}, {vn, leaf}, {w, z}})
                 .has_value()) {
          continue;
        }
        if (BranchImplied(query, z, leaf, view, w, vn)) {
          held = true;
        }
      }
      if (held) {
        cover.leaves.push_back(leaf);
      }
    }

    const auto better = [](const LeafCover& a, const LeafCover& b) {
      if (a.covers_answer != b.covers_answer) return a.covers_answer;
      return a.leaves.size() > b.leaves.size();
    };
    if (!best.has_value() || better(cover, *best)) {
      best = std::move(cover);
    }
  }
  if (!best.has_value()) {
    return std::nullopt;
  }
  return best;
}

}  // namespace xvr
