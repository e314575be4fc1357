#include "exec/node_index.h"

#include <algorithm>

#include "common/logging.h"

namespace xvr {
namespace {

// True iff every list is sorted by interval begin (document order).
[[maybe_unused]] bool AllSortedByBegin(
    const std::vector<std::vector<NodeId>>& lists, const TreeIntervals& iv) {
  const auto by_begin = [&iv](NodeId a, NodeId b) {
    return iv.begin[static_cast<size_t>(a)] < iv.begin[static_cast<size_t>(b)];
  };
  return std::all_of(lists.begin(), lists.end(), [&](const auto& list) {
    return std::is_sorted(list.begin(), list.end(), by_begin);
  });
}

// Keeps x ∈ `xs` that have a child in `ys`: one pass marks the parents of
// ys in a per-call bitmap over node ids, one pass tests xs against it.
std::vector<NodeId> FilterHasChildIn(const std::vector<NodeId>& xs,
                                     const std::vector<NodeId>& ys,
                                     const XmlTree& tree) {
  std::vector<bool> is_parent(tree.size());
  for (NodeId y : ys) {
    const NodeId p = tree.node(y).parent;
    if (p != kNullNode) {
      is_parent[static_cast<size_t>(p)] = true;
    }
  }
  std::vector<NodeId> out;
  for (NodeId x : xs) {
    if (is_parent[static_cast<size_t>(x)]) {
      out.push_back(x);
    }
  }
  return out;
}

// Keeps x ∈ `xs` that have a proper descendant in `ys`. Both lists are
// sorted by interval begin, so one cursor moving forward over ys serves
// every x — the merge of Al-Khalifa et al.'s stack-tree joins (ICDE 2002).
std::vector<NodeId> FilterHasDescendantIn(const std::vector<NodeId>& xs,
                                          const std::vector<NodeId>& ys,
                                          const TreeIntervals& iv) {
  std::vector<NodeId> out;
  size_t yi = 0;
  for (NodeId x : xs) {
    // The first y after x in document order is a proper descendant of x
    // iff its begin lies in (bx, ex).
    const int32_t bx = iv.begin[static_cast<size_t>(x)];
    const int32_t ex = iv.end[static_cast<size_t>(x)];
    while (yi < ys.size() && iv.begin[static_cast<size_t>(ys[yi])] <= bx) {
      ++yi;
    }
    if (yi < ys.size() && iv.begin[static_cast<size_t>(ys[yi])] < ex) {
      out.push_back(x);
    }
  }
  return out;
}

// Keeps y ∈ `ys` whose parent is in `xs`, tested against a per-call bitmap
// of xs over node ids.
std::vector<NodeId> FilterParentIn(const std::vector<NodeId>& ys,
                                   const std::vector<NodeId>& xs,
                                   const XmlTree& tree) {
  std::vector<bool> in_xs(tree.size());
  for (NodeId x : xs) {
    in_xs[static_cast<size_t>(x)] = true;
  }
  std::vector<NodeId> out;
  for (NodeId y : ys) {
    const NodeId p = tree.node(y).parent;
    if (p != kNullNode && in_xs[static_cast<size_t>(p)]) {
      out.push_back(y);
    }
  }
  return out;
}

// Keeps y ∈ `ys` that have a proper ancestor in `xs` (both doc-ordered).
std::vector<NodeId> FilterAncestorIn(const std::vector<NodeId>& ys,
                                     const std::vector<NodeId>& xs,
                                     const TreeIntervals& iv) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack;  // ancestors of the sweep position, nested
  size_t xi = 0;
  for (NodeId y : ys) {
    const int32_t by = iv.begin[static_cast<size_t>(y)];
    while (xi < xs.size() &&
           iv.begin[static_cast<size_t>(xs[xi])] < by) {
      stack.push_back(xs[xi]);
      ++xi;
    }
    while (!stack.empty() &&
           iv.end[static_cast<size_t>(stack.back())] <= by) {
      stack.pop_back();
    }
    // Stack intervals all start before by; the top (if any) contains by iff
    // its end is beyond by — which the pop loop just ensured.
    if (!stack.empty()) {
      out.push_back(y);
    }
  }
  return out;
}

}  // namespace

TreeIntervals::TreeIntervals(const XmlTree& tree) {
  begin.assign(tree.size(), 0);
  end.assign(tree.size(), 0);
  if (tree.size() == 0) {
    return;
  }
  int32_t clock = 0;
  // Iterative DFS with explicit post-visit.
  std::vector<std::pair<NodeId, bool>> stack = {{tree.root(), false}};
  while (!stack.empty()) {
    auto [n, done] = stack.back();
    stack.pop_back();
    if (done) {
      end[static_cast<size_t>(n)] = clock;
      continue;
    }
    begin[static_cast<size_t>(n)] = clock++;
    stack.emplace_back(n, true);
    // Children pushed in reverse for document-order visitation.
    // lint:hot-alloc-ok (index construction, not the serving path)
    const std::vector<NodeId> children = tree.Children(n);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
}

NodeIndex::NodeIndex(const XmlTree& tree)
    : tree_(tree), intervals_(tree) {
  by_label_.resize(tree.labels().size());
  all_nodes_.reserve(tree.size());
  // Node ids are already in document order relative to begin? Not
  // necessarily; sort by interval begin to get document order.
  std::vector<NodeId> order(tree.size());
  for (size_t i = 0; i < tree.size(); ++i) {
    order[i] = static_cast<NodeId>(i);
  }
  std::sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
    return intervals_.begin[static_cast<size_t>(a)] <
           intervals_.begin[static_cast<size_t>(b)];
  });
  for (NodeId n : order) {
    all_nodes_.push_back(n);
    const LabelId l = tree.label(n);
    if (l >= 0) {
      if (static_cast<size_t>(l) >= by_label_.size()) {
        by_label_.resize(static_cast<size_t>(l) + 1);
      }
      by_label_[static_cast<size_t>(l)].push_back(n);
    }
  }
}

const std::vector<NodeId>& NodeIndex::Nodes(LabelId label) const {
  static const std::vector<NodeId> kEmpty;
  if (label < 0 || static_cast<size_t>(label) >= by_label_.size()) {
    return kEmpty;
  }
  return by_label_[static_cast<size_t>(label)];
}

std::vector<NodeId> NodeIndex::Candidates(const TreePattern& pattern,
                                          TreePattern::NodeIndex pn) const {
  const PatternNode& p = pattern.node(pn);
  std::vector<NodeId> out =
      (p.label == kWildcardLabel) ? all_nodes_ : Nodes(p.label);
  if (p.value_pred.has_value()) {
    std::vector<NodeId> kept;
    for (NodeId n : out) {
      const std::string* v = tree_.attribute(n, p.value_pred->attribute);
      if (v != nullptr && p.value_pred->Matches(*v)) {
        kept.push_back(n);
      }
    }
    out = std::move(kept);
  }
  return out;
}

std::vector<NodeId> StructuralJoinEvaluate(
    const TreePattern& pattern, const XmlTree& tree,
    const TreeIntervals& intervals,
    std::vector<std::vector<NodeId>> candidates) {
  if (pattern.empty()) {
    return {};
  }
  // The descendant and ancestor filters are merges over lists sorted by
  // interval begin; both indexes build their candidates that way.
  XVR_DCHECK(AllSortedByBegin(candidates, intervals))
      << "structural-join candidates must be sorted by interval begin";
  // Bottom-up filtering (children have larger pattern indices).
  for (size_t pi = pattern.size(); pi-- > 0;) {
    const auto pn = static_cast<TreePattern::NodeIndex>(pi);
    for (TreePattern::NodeIndex pc : pattern.node(pn).children) {
      const auto& child_list = candidates[static_cast<size_t>(pc)];
      auto& mine = candidates[pi];
      if (pattern.axis(pc) == Axis::kChild) {
        mine = FilterHasChildIn(mine, child_list, tree);
      } else {
        mine = FilterHasDescendantIn(mine, child_list, intervals);
      }
      if (mine.empty()) {
        return {};
      }
    }
  }
  // Root anchor.
  std::vector<NodeId> reach;
  {
    const auto& roots = candidates[static_cast<size_t>(pattern.root())];
    if (pattern.axis(pattern.root()) == Axis::kChild) {
      if (std::find(roots.begin(), roots.end(), tree.root()) != roots.end()) {
        reach.push_back(tree.root());
      }
    } else {
      reach = roots;
    }
  }
  // Top-down along the root-to-answer chain.
  const auto chain = pattern.PathFromRoot(pattern.answer());
  for (size_t ci = 1; ci < chain.size() && !reach.empty(); ++ci) {
    const TreePattern::NodeIndex pc = chain[ci];
    const auto& cands = candidates[static_cast<size_t>(pc)];
    if (pattern.axis(pc) == Axis::kChild) {
      reach = FilterParentIn(cands, reach, tree);
    } else {
      reach = FilterAncestorIn(cands, reach, intervals);
    }
  }
  return reach;
}

std::vector<NodeId> NodeIndex::Evaluate(const TreePattern& pattern) const {
  std::vector<std::vector<NodeId>> candidates(pattern.size());
  for (size_t pi = 0; pi < pattern.size(); ++pi) {
    candidates[pi] =
        Candidates(pattern, static_cast<TreePattern::NodeIndex>(pi));
    if (candidates[pi].empty()) {
      return {};
    }
  }
  return StructuralJoinEvaluate(pattern, tree_, intervals_,
                                std::move(candidates));
}

size_t NodeIndex::ByteSize() const {
  size_t bytes = all_nodes_.size() * sizeof(NodeId) +
                 intervals_.begin.size() * sizeof(int32_t) * 2;
  for (const auto& list : by_label_) {
    bytes += list.size() * sizeof(NodeId) + sizeof(void*);
  }
  return bytes;
}

}  // namespace xvr
