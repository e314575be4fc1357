#include "analysis/certify.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "pattern/compose.h"
#include "pattern/containment.h"
#include "pattern/homomorphism.h"
#include "pattern/normalize.h"
#include "pattern/path_pattern.h"
#include "rewrite/compensate.h"

// Everything in this file re-derives plan claims from first principles: the
// homomorphism axioms of §II, the leaf-cover conditions of §IV-A and the
// branch-implication test behind condition (b) are implemented here again,
// on purpose, rather than calling into selection/leaf_cover.cc — a bug
// shared by the selection code and its checker certifies itself.

namespace xvr {
namespace {

using NodeIdx = TreePattern::NodeIndex;

// Deepest common node of the root paths to `a` and `b`.
NodeIdx DeepestCommonNode(const TreePattern& p, NodeIdx a, NodeIdx b) {
  const std::vector<NodeIdx> pa = p.PathFromRoot(a);
  const std::vector<NodeIdx> pb = p.PathFromRoot(b);
  NodeIdx common = p.root();
  for (size_t i = 0; i < pa.size() && i < pb.size(); ++i) {
    if (pa[i] != pb[i]) {
      break;
    }
    common = pa[i];
  }
  return common;
}

// The chain of `p` strictly below `anchor` down to `to`, re-rooted under a
// synthetic anchor label so two chains hung at the same document node can
// be compared as patterns. Chain predicates are preserved; the anchor's own
// predicate belongs to the upper path and is not.
TreePattern ChainBelow(const TreePattern& p, NodeIdx anchor, NodeIdx to) {
  TreePattern out;
  NodeIdx cur = out.AddRoot(kAnchorLabel, Axis::kChild);
  bool below = false;
  for (NodeIdx n : p.PathFromRoot(to)) {
    if (!below) {
      below = n == anchor;
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

// Condition (b)'s implication: every document node satisfying the view
// branch (w -> v, anchored at some node) satisfies the query branch
// (z -> n, anchored at the same node). Complete for chains after §III-C
// normalization (Theorem 3.1).
bool BranchImplies(const TreePattern& query, NodeIdx z, NodeIdx n,
                   const TreePattern& view, NodeIdx w, NodeIdx v) {
  TreePattern query_chain = ChainBelow(query, z, n);
  TreePattern view_chain = ChainBelow(view, w, v);
  if (query_chain.size() <= 1) {
    return false;  // n not strictly below z — never true for a leaf branch
  }
  NormalizeTreePattern(&query_chain);
  NormalizeTreePattern(&view_chain);
  return ExistsHomomorphism(query_chain, view_chain);
}

// Checks `mapping` against the homomorphism axioms (§II) node by node.
// Returns the first violation, nullopt when the mapping is a genuine
// homomorphism view -> query.
std::optional<std::string> MappingViolation(const TreePattern& view,
                                            const TreePattern& query,
                                            const NodeMapping& mapping) {
  for (size_t i = 0; i < view.size(); ++i) {
    const auto vn = static_cast<NodeIdx>(i);
    const NodeIdx qn = mapping[i];
    if (qn < 0 || static_cast<size_t>(qn) >= query.size()) {
      return "node " + std::to_string(i) + " maps out of the query";
    }
    const LabelId vl = view.label(vn);
    if (vl != kWildcardLabel && vl != query.label(qn)) {
      return "node " + std::to_string(i) +
             " maps onto a query node with a different label";
    }
    if (view.node(vn).value_pred.has_value() &&
        (!query.node(qn).value_pred.has_value() ||
         !(*query.node(qn).value_pred == *view.node(vn).value_pred))) {
      return "node " + std::to_string(i) +
             " carries a predicate its image does not carry equally";
    }
    const NodeIdx vp = view.node(vn).parent;
    if (vp == TreePattern::kNoNode) {
      // Root anchor: a child-anchored view root must sit on the query's
      // child-anchored root; a descendant-anchored root may sit anywhere.
      if (view.axis(vn) == Axis::kChild &&
          (qn != query.root() || query.axis(query.root()) != Axis::kChild)) {
        return "child-anchored view root does not map to the "
               "child-anchored query root";
      }
      continue;
    }
    const NodeIdx qp = mapping[static_cast<size_t>(vp)];
    if (view.axis(vn) == Axis::kChild) {
      if (query.node(qn).parent != qp || query.axis(qn) != Axis::kChild) {
        return "/-edge into node " + std::to_string(i) +
               " does not map onto a /-edge";
      }
    } else if (qn == qp || !query.IsAncestorOrSelf(qp, qn)) {
      return "//-edge into node " + std::to_string(i) +
             " does not map onto a proper descendant";
    }
  }
  return std::nullopt;
}

// Condition (b), re-derived with fresh pinned witnesses: some view node vn
// maps onto `leaf`, the view's divergence node w (paths to vn and RET(V)
// split) maps exactly onto the query's divergence node z, and the view
// branch w->vn implies the query branch z->leaf under the shared anchor.
bool ConditionBHolds(const HomomorphismMatcher& matcher,
                     const TreePattern& view, const TreePattern& query,
                     NodeIdx q_star, NodeIdx leaf) {
  const NodeIdx view_answer = view.answer();
  const NodeIdx z = DeepestCommonNode(query, leaf, q_star);
  for (size_t i = 0; i < view.size(); ++i) {
    const auto vn = static_cast<NodeIdx>(i);
    const std::vector<NodeIdx>& candidates = matcher.ImageCandidates(vn);
    if (std::find(candidates.begin(), candidates.end(), leaf) ==
        candidates.end()) {
      continue;
    }
    const NodeIdx w = DeepestCommonNode(view, vn, view_answer);
    if (!matcher.ExtractWithPins({{view_answer, q_star}, {vn, leaf}, {w, z}})
             .has_value()) {
      continue;
    }
    if (BranchImplies(query, z, leaf, view, w, vn)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* CertifyVerdictName(CertifyVerdict verdict) {
  switch (verdict) {
    case CertifyVerdict::kCertified:
      return "certified";
    case CertifyVerdict::kInconclusive:
      return "inconclusive";
    case CertifyVerdict::kRejected:
      return "rejected";
  }
  return "?";
}

std::string Certificate::Summary() const {
  std::string s = CertifyVerdictName(verdict);
  if (degraded_plan) {
    s += " [degraded]";
  }
  if (non_minimal) {
    s += " [non-minimal]";
  }
  s += " (escalations=" + std::to_string(escalations) +
       ", inconclusive=" + std::to_string(inconclusive_checks) + ")";
  if (!findings.empty()) {
    s += ": " + findings.front().check + ": " + findings.front().detail;
    if (findings.size() > 1) {
      s += " (+" + std::to_string(findings.size() - 1) + " more)";
    }
  }
  return s;
}

Certificate CertifyPlan(const QueryPlan& plan, const ViewLookup& lookup,
                        const CertifyOptions& options) {
  Certificate cert;
  cert.degraded_plan = plan.plan_stats.degraded_selection;
  const auto reject = [&cert](std::string check, std::string detail) {
    cert.verdict = CertifyVerdict::kRejected;
    cert.findings.push_back({std::move(check), std::move(detail)});
  };
  const auto undecided = [&cert](std::string check, std::string detail) {
    ++cert.inconclusive_checks;
    if (cert.verdict == CertifyVerdict::kCertified) {
      cert.verdict = CertifyVerdict::kInconclusive;
    }
    cert.findings.push_back({std::move(check), std::move(detail)});
  };

  if (!plan.uses_views) {
    return cert;  // base plans evaluate Q directly — trivially equivalent
  }
  const TreePattern& query = plan.query;
  if (query.empty()) {
    reject("structure", "view plan carries an empty query pattern");
    return cert;
  }
  const SelectionResult& selection = plan.selection;
  if (selection.views.empty()) {
    reject("structure", "view plan selects no views");
    return cert;
  }

  // Escalating containment with a lazily copied private dictionary (the
  // canonical rung interns a scratch label; the caller's dictionary may be
  // serving concurrent queries).
  std::optional<LabelDict> private_dict;
  const auto decide = [&](const TreePattern& container,
                          const TreePattern& containee) {
    LabelDict* dict = nullptr;
    if (options.dict != nullptr) {
      if (!private_dict.has_value()) {
        private_dict = *options.dict;
      }
      dict = &*private_dict;
    }
    bool escalated = false;
    const ContainmentVerdict verdict = DecideContainment(
        container, containee, dict, options.max_canonical_desc_edges,
        &escalated);
    if (escalated) {
      ++cert.escalations;
    }
    return verdict;
  };

  const std::vector<NodeIdx> leaves = query.Leaves();
  const size_t num_views = selection.views.size();
  const auto leaf_slot = [&leaves](NodeIdx n) {
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] == n) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  // --- Layer 1: re-derive every witness the plan records -------------------
  std::vector<const TreePattern*> views(num_views, nullptr);
  std::vector<NodeIdx> anchors(num_views, TreePattern::kNoNode);
  std::vector<bool> view_ok(num_views, false);
  std::vector<std::vector<bool>> verified_leaves(
      num_views, std::vector<bool>(leaves.size(), false));
  std::vector<bool> verified_answer(num_views, false);

  for (size_t vi = 0; vi < num_views; ++vi) {
    const SelectedView& sel = selection.views[vi];
    const std::string tag = "view " + std::to_string(sel.view_id);
    const TreePattern* view = lookup ? lookup(sel.view_id) : nullptr;
    if (view == nullptr) {
      reject("structure", tag + " does not resolve in the catalog");
      continue;
    }
    views[vi] = view;
    const LeafCover& cover = sel.cover;
    if (cover.mapping.size() != view->size()) {
      reject("structure",
             tag + " records " + std::to_string(cover.mapping.size()) +
                 " mapping entries for " + std::to_string(view->size()) +
                 " view nodes");
      continue;
    }
    const NodeIdx q_star = cover.mapped_answer;
    if (q_star < 0 || static_cast<size_t>(q_star) >= query.size()) {
      reject("structure", tag + " anchors outside the query pattern");
      continue;
    }
    anchors[vi] = q_star;
    if (cover.mapping[static_cast<size_t>(view->answer())] != q_star) {
      reject("structure",
             tag + "'s recorded anchor disagrees with its mapping of RET(V)");
      continue;
    }
    if (const auto violation = MappingViolation(*view, query, cover.mapping)) {
      reject("mapping", tag + ": recorded mapping is not a homomorphism (" +
                            *violation + ")");
      continue;
    }
    view_ok[vi] = true;

    // Value predicates above the anchor are invisible to the rewriter's
    // code-path check; the view itself must mirror them.
    for (NodeIdx b : query.PathFromRoot(q_star)) {
      if (b == q_star || !query.node(b).value_pred.has_value()) {
        continue;
      }
      bool mirrored = false;
      for (size_t i = 0; i < view->size() && !mirrored; ++i) {
        mirrored = cover.mapping[i] == b &&
                   view->node(static_cast<NodeIdx>(i))
                       .value_pred.has_value();
      }
      if (!mirrored) {
        reject("anchor-path",
               tag + " leaves a value predicate above its anchor unmirrored "
                     "— the rewriter can only check labels there");
      }
    }

    if (cover.covers_answer &&
        !query.IsAncestorOrSelf(q_star, query.answer())) {
      reject("cover", tag + " claims Δ but its anchor cannot deliver the "
                            "answer node");
    } else {
      verified_answer[vi] = cover.covers_answer;
    }

    const HomomorphismMatcher matcher(*view, query);
    for (NodeIdx leaf : cover.leaves) {
      const int slot = leaf_slot(leaf);
      if (slot < 0) {
        reject("cover", tag + " claims node " + std::to_string(leaf) +
                            " which is not a leaf of Q");
        continue;
      }
      // Condition (a): the leaf's matches live inside the fragments.
      if (query.IsAncestorOrSelf(q_star, leaf)) {
        verified_leaves[vi][static_cast<size_t>(slot)] = true;
        continue;
      }
      // Condition (b): re-derived with fresh pinned witnesses.
      if (matcher.Exists() &&
          ConditionBHolds(matcher, *view, query, q_star, leaf)) {
        verified_leaves[vi][static_cast<size_t>(slot)] = true;
        continue;
      }
      reject("cover", tag + " claims leaf " + std::to_string(leaf) +
                          " without a verifiable condition-(a) or "
                          "condition-(b) witness");
    }
  }

  // ⋃ LC(V,Q) = LF(Q), over *verified* claims only.
  bool answer_covered = false;
  for (size_t vi = 0; vi < num_views; ++vi) {
    answer_covered = answer_covered || verified_answer[vi];
  }
  if (!answer_covered) {
    reject("cover", "no verified view covers the answer Δ — nothing can "
                    "extract the result");
  }
  for (size_t li = 0; li < leaves.size(); ++li) {
    bool covered = false;
    for (size_t vi = 0; vi < num_views && !covered; ++vi) {
      covered = verified_leaves[vi][li];
    }
    if (!covered) {
      reject("cover", "verified covers miss query leaf " +
                          std::to_string(leaves[li]) +
                          " — the union falls short of LF(Q)");
    }
  }

  // --- Layer 2: recompute the hoisted compensating patterns ----------------
  const PlanCompensation& comp = plan.compensation;
  const bool comp_parallel = comp.views.size() == num_views;
  if (!comp_parallel) {
    reject("compensation",
           "plan hoists " + std::to_string(comp.views.size()) +
               " compensations for " + std::to_string(num_views) +
               " selected views");
  } else {
    for (size_t vi = 0; vi < num_views; ++vi) {
      if (anchors[vi] == TreePattern::kNoNode) {
        continue;  // already rejected structurally
      }
      const std::string tag =
          "view " + std::to_string(selection.views[vi].view_id);
      const TreePattern expected_refinement =
          RefinementPattern(query, anchors[vi]);
      if (comp.views[vi].refinement.CanonicalKey() !=
          expected_refinement.CanonicalKey()) {
        reject("compensation",
               tag + "'s hoisted refinement is not the subtree of Q at its "
                     "anchor");
      }
      if (!(comp.views[vi].anchor_path == PathTo(query, anchors[vi]))) {
        reject("compensation",
               tag + "'s hoisted anchor path is not Q's root-to-anchor path");
      }
    }
    const int primary = selection.PrimaryIndex();
    if (primary >= 0 &&
        anchors[static_cast<size_t>(primary)] != TreePattern::kNoNode) {
      const NodeIdx q_star_p = anchors[static_cast<size_t>(primary)];
      if (query.IsAncestorOrSelf(q_star_p, query.answer())) {
        if (!comp.has_extraction) {
          reject("compensation",
                 "plan has a primary view but hoists no extraction pattern");
        } else if (comp.extraction.CanonicalKey() !=
                   ExtractionPattern(query, q_star_p).CanonicalKey()) {
          reject("compensation",
                 "hoisted extraction is not the answer-preserving subtree of "
                 "Q at the primary anchor");
        }
      }
    }
  }

  // --- Layer 3: composition cross-checks -----------------------------------
  // Per view: composing the view with its refinement must not *invent*
  // constraints, i.e. Q ⊑ V∘R must hold (every query answer survives the
  // fragment refinement).
  for (size_t vi = 0; vi < num_views; ++vi) {
    if (!view_ok[vi] || !comp_parallel) {
      continue;
    }
    const std::string tag =
        "view " + std::to_string(selection.views[vi].view_id);
    const Result<TreePattern> composed =
        ComposeAtAnswer(*views[vi], comp.views[vi].refinement);
    if (!composed.ok()) {
      reject("composition",
             tag + " composed with its refinement is unsatisfiable: " +
                 composed.status().message());
      continue;
    }
    switch (decide(*composed, query)) {
      case ContainmentVerdict::kContained:
        break;
      case ContainmentVerdict::kNotContained:
        reject("composition",
               tag + " composed with its refinement invents constraints: "
                     "Q ⋢ V∘R, so query answers would be dropped");
        break;
      case ContainmentVerdict::kUnknown:
        undecided("composition",
                  tag + ": Q ⊑ V∘R undecided (canonical test inapplicable)");
        break;
    }
  }

  // Plan-wide: project Q onto the region the plan verifiably checks
  // (anchor paths + anchored subtrees + condition-(b) branches, predicates
  // only where enforced) and require the projection to still contain no
  // less than Q — a strictly weaker projection means the plan lost a
  // constraint. (Q ⊑ projection holds by construction of ProjectPattern.)
  if (cert.verdict != CertifyVerdict::kRejected) {
    std::vector<bool> keep_node(query.size(), false);
    std::vector<bool> keep_pred(query.size(), false);
    for (size_t vi = 0; vi < num_views; ++vi) {
      const NodeIdx q_star = anchors[vi];
      for (NodeIdx n : query.PathFromRoot(q_star)) {
        keep_node[static_cast<size_t>(n)] = true;
        // Predicates above the anchor were verified mirrored above.
        keep_pred[static_cast<size_t>(n)] = true;
      }
      for (size_t n = 0; n < query.size(); ++n) {
        if (query.IsAncestorOrSelf(q_star, static_cast<NodeIdx>(n))) {
          keep_node[n] = true;
          keep_pred[n] = true;  // checked inside the fragments
        }
      }
      for (size_t li = 0; li < leaves.size(); ++li) {
        if (!verified_leaves[vi][li]) {
          continue;
        }
        for (NodeIdx n : query.PathFromRoot(leaves[li])) {
          keep_node[static_cast<size_t>(n)] = true;
          keep_pred[static_cast<size_t>(n)] = true;  // implied by the branch
        }
      }
    }
    const TreePattern projection =
        ProjectPattern(query, keep_node, keep_pred);
    switch (decide(query, projection)) {
      case ContainmentVerdict::kContained:
        break;
      case ContainmentVerdict::kNotContained:
        reject("composition",
               "the plan-checked projection of Q loses constraints "
               "(projection ⋢ Q): some branch of Q is never verified");
        break;
      case ContainmentVerdict::kUnknown:
        undecided("composition",
                  "projection ⊑ Q undecided (canonical test inapplicable)");
        break;
    }
  }

  // --- Non-minimality (flag, never a rejection) ----------------------------
  if (cert.verdict != CertifyVerdict::kRejected && num_views > 1) {
    for (size_t drop = 0; drop < num_views && !cert.non_minimal; ++drop) {
      bool answer_still = false;
      for (size_t vi = 0; vi < num_views; ++vi) {
        answer_still = answer_still || (vi != drop && verified_answer[vi]);
      }
      if (!answer_still) {
        continue;
      }
      bool complete = true;
      for (size_t li = 0; li < leaves.size() && complete; ++li) {
        bool covered = false;
        for (size_t vi = 0; vi < num_views && !covered; ++vi) {
          covered = vi != drop && verified_leaves[vi][li];
        }
        complete = covered;
      }
      cert.non_minimal = complete;
    }
  }
  return cert;
}

}  // namespace xvr
