#include "pattern/containment.h"

#include <algorithm>

#include "common/logging.h"
#include "pattern/evaluate.h"
#include "pattern/homomorphism.h"
#include "pattern/normalize.h"
#include "xml/xml_tree.h"

namespace xvr {
namespace {

// Longest chain of consecutive wildcard nodes in `p` (each the single parent
// of the next), used to bound canonical-model extension lengths.
int LongestWildcardChain(const TreePattern& p) {
  int best = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    const auto n = static_cast<TreePattern::NodeIndex>(i);
    if (p.label(n) != kWildcardLabel) {
      continue;
    }
    // Only count from chain heads.
    const TreePattern::NodeIndex parent = p.node(n).parent;
    if (parent != TreePattern::kNoNode &&
        p.label(parent) == kWildcardLabel) {
      continue;
    }
    int len = 0;
    TreePattern::NodeIndex cur = n;
    while (cur != TreePattern::kNoNode && p.label(cur) == kWildcardLabel) {
      ++len;
      const auto& children = p.node(cur).children;
      TreePattern::NodeIndex next = TreePattern::kNoNode;
      for (TreePattern::NodeIndex c : children) {
        if (p.label(c) == kWildcardLabel) {
          next = c;
          break;
        }
      }
      cur = next;
    }
    best = std::max(best, len);
  }
  return best;
}

// Enumerates canonical models of `q`: one extension length in [0, w] for
// every //-edge (the root anchor counts as one when kDescendant), wildcards
// replaced by the fresh label `z`. Returns false as soon as `container`
// fails on a model (i.e. containment refuted).
class CanonicalModelEnumerator {
 public:
  CanonicalModelEnumerator(const TreePattern& container, const TreePattern& q,
                           LabelId z, int w)
      : container_(container), q_(q), z_(z), w_(w) {
    // Collect the descendant edges: entry i is a pattern node whose incoming
    // edge is //; the root is included when its anchor is kDescendant.
    for (size_t i = 0; i < q_.size(); ++i) {
      const auto n = static_cast<TreePattern::NodeIndex>(i);
      if (q_.axis(n) == Axis::kDescendant) {
        desc_edges_.push_back(n);
      }
    }
    lengths_.assign(desc_edges_.size(), 0);
  }

  // True iff `container` matches every canonical model.
  bool ContainerMatchesAll() { return Recurse(0); }

 private:
  bool Recurse(size_t edge_index) {
    if (edge_index == desc_edges_.size()) {
      XmlTree model = BuildModel();
      return MatchesPattern(container_, model);
    }
    for (int k = 0; k <= w_; ++k) {
      lengths_[edge_index] = k;
      if (!Recurse(edge_index + 1)) {
        return false;
      }
    }
    return true;
  }

  int ExtensionOf(TreePattern::NodeIndex n) const {
    for (size_t i = 0; i < desc_edges_.size(); ++i) {
      if (desc_edges_[i] == n) {
        return lengths_[i];
      }
    }
    return -1;  // not a descendant edge
  }

  LabelId ModelLabel(TreePattern::NodeIndex n) const {
    const LabelId l = q_.label(n);
    return l == kWildcardLabel ? z_ : l;
  }

  XmlTree BuildModel() const {
    XmlTree tree;
    // Root handling: kChild anchor -> q root is the document root;
    // kDescendant anchor with extension k -> k z-nodes above it (k == 0
    // still means the q root can be the document root, matching the
    // semantics that // at the top selects any node including the root's
    // children... the document root itself corresponds to k == 0).
    const TreePattern::NodeIndex qroot = q_.root();
    NodeId attach = kNullNode;
    const int root_ext =
        q_.axis(qroot) == Axis::kDescendant ? ExtensionOf(qroot) : -1;
    NodeId q_root_node;
    if (root_ext <= 0) {
      q_root_node = tree.CreateRoot(ModelLabel(qroot));
    } else {
      attach = tree.CreateRoot(z_);
      for (int i = 1; i < root_ext; ++i) {
        attach = tree.AppendChild(attach, z_);
      }
      q_root_node = tree.AppendChild(attach, ModelLabel(qroot));
    }
    // DFS over q attaching children with their extension chains.
    std::vector<std::pair<TreePattern::NodeIndex, NodeId>> stack = {
        {qroot, q_root_node}};
    while (!stack.empty()) {
      const auto [qn, xn] = stack.back();
      stack.pop_back();
      for (TreePattern::NodeIndex qc : q_.node(qn).children) {
        NodeId parent = xn;
        if (q_.axis(qc) == Axis::kDescendant) {
          const int ext = ExtensionOf(qc);
          for (int i = 0; i < ext; ++i) {
            parent = tree.AppendChild(parent, z_);
          }
        }
        const NodeId xc = tree.AppendChild(parent, ModelLabel(qc));
        stack.emplace_back(qc, xc);
      }
    }
    return tree;
  }

  const TreePattern& container_;
  const TreePattern& q_;
  const LabelId z_;
  const int w_;
  std::vector<TreePattern::NodeIndex> desc_edges_;
  std::vector<int> lengths_;
};

bool HasWildcardLabel(const TreePattern& p) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (p.label(static_cast<TreePattern::NodeIndex>(i)) == kWildcardLabel) {
      return true;
    }
  }
  return false;
}

bool HasValuePredicates(const TreePattern& p) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (p.node(static_cast<TreePattern::NodeIndex>(i))
            .value_pred.has_value()) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ContainsByHomomorphism(const TreePattern& container,
                            const TreePattern& containee) {
  return ExistsHomomorphism(container, containee);
}

bool PathContains(const PathPattern& container, const PathPattern& containee) {
  const TreePattern p = NormalizePath(container).ToTreePattern();
  const TreePattern q = NormalizePath(containee).ToTreePattern();
  return ExistsHomomorphism(p, q);
}

bool ContainsCanonical(const TreePattern& container,
                       const TreePattern& containee, LabelDict* dict) {
  XVR_CHECK(!HasValuePredicates(container) &&
            !HasValuePredicates(containee))
      << "canonical containment does not support value predicates";
  if (containee.empty()) {
    return true;
  }
  if (container.empty()) {
    return false;
  }
  const LabelId z = dict->Intern("__canonical_z__");
  const int w = LongestWildcardChain(container) + 1;
  CanonicalModelEnumerator enumerator(container, containee, z, w);
  return enumerator.ContainerMatchesAll();
}

bool EquivalentCanonical(const TreePattern& a, const TreePattern& b,
                         LabelDict* dict) {
  return ContainsCanonical(a, b, dict) && ContainsCanonical(b, a, dict);
}

const char* ContainmentVerdictName(ContainmentVerdict verdict) {
  switch (verdict) {
    case ContainmentVerdict::kContained:
      return "contained";
    case ContainmentVerdict::kNotContained:
      return "not-contained";
    case ContainmentVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

ContainmentVerdict DecideContainment(const TreePattern& container,
                                     const TreePattern& containee,
                                     LabelDict* dict,
                                     int max_canonical_desc_edges,
                                     bool* escalated) {
  if (escalated != nullptr) {
    *escalated = false;
  }
  // Rung 1: the sound DP as given.
  if (ContainsByHomomorphism(container, containee)) {
    return ContainmentVerdict::kContained;
  }
  // Rung 2: normalize both sides and retry — normalization is
  // equivalence-preserving and removes the wildcard-chain false negatives.
  TreePattern norm_container = container;
  TreePattern norm_containee = containee;
  NormalizeTreePattern(&norm_container);
  NormalizeTreePattern(&norm_containee);
  if (ContainsByHomomorphism(norm_container, norm_containee)) {
    return ContainmentVerdict::kContained;
  }
  // Rung 3: without wildcards on either side (XP{/,//,[]}) the
  // homomorphism test is complete, so the miss is a refutation. Wildcards
  // genuinely break this — even for path containers: //*/a contains
  // /b[.//a/b]//c (the a in any model has a real parent for * to match)
  // yet no homomorphism exists, because the /-edge of */a cannot map onto
  // the containee's //-edge. Value predicates are label-like constraints
  // and do not affect completeness here.
  if (!HasWildcardLabel(norm_container) && !HasWildcardLabel(norm_containee)) {
    return ContainmentVerdict::kNotContained;
  }
  // Rung 4: exact canonical-model test, when it applies.
  if (dict == nullptr || HasValuePredicates(norm_container) ||
      HasValuePredicates(norm_containee)) {
    return ContainmentVerdict::kUnknown;
  }
  int desc_edges = 0;
  for (size_t i = 0; i < norm_containee.size(); ++i) {
    if (norm_containee.axis(static_cast<TreePattern::NodeIndex>(i)) ==
        Axis::kDescendant) {
      ++desc_edges;
    }
  }
  if (desc_edges > max_canonical_desc_edges) {
    return ContainmentVerdict::kUnknown;
  }
  if (escalated != nullptr) {
    *escalated = true;
  }
  return ContainsCanonical(norm_container, norm_containee, dict)
             ? ContainmentVerdict::kContained
             : ContainmentVerdict::kNotContained;
}

}  // namespace xvr
