#ifndef XVR_PATTERN_TREE_PATTERN_H_
#define XVR_PATTERN_TREE_PATTERN_H_

// Tree patterns — the paper's representation of XPath queries (§II).
//
// A tree pattern is an unordered tree whose nodes carry a label (or the
// wildcard *) and whose edges carry an axis: / (child) or // (descendant).
// One node is the answer node RET(P). The root itself also has an axis,
// describing how the pattern is anchored at the document root: kChild for
// absolute queries (/a/...) and kDescendant for queries starting with //.
//
// As an extension (paper §V, "Handling comparison predicates") a node may
// carry a comparison predicate over one of its attributes.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "xml/label_dict.h"

namespace xvr {

enum class Axis : uint8_t {
  kChild = 0,       // '/'
  kDescendant = 1,  // '//'
};

// Comparison predicate on an attribute of the node, e.g. [@id = "42"].
struct ValuePredicate {
  enum class Op : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string attribute;
  Op op = Op::kEq;
  std::string value;

  // Evaluates the predicate against an attribute value (numeric comparison
  // when both sides parse as numbers, lexicographic otherwise).
  bool Matches(const std::string& actual) const;

  friend bool operator==(const ValuePredicate& a,
                         const ValuePredicate& b) = default;
};

struct PatternNode {
  LabelId label = kInvalidLabel;  // kWildcardLabel for '*'
  Axis axis = Axis::kChild;       // edge from the parent (root: anchor axis)
  int32_t parent = -1;
  std::vector<int32_t> children;
  std::optional<ValuePredicate> value_pred;
};

class TreePattern {
 public:
  using NodeIndex = int32_t;
  static constexpr NodeIndex kNoNode = -1;

  TreePattern() = default;

  // --- construction --------------------------------------------------------

  // Creates the root. `axis` is the anchor: kChild for /a, kDescendant
  // for //a. Returns index 0.
  NodeIndex AddRoot(LabelId label, Axis axis = Axis::kChild);

  NodeIndex AddChild(NodeIndex parent, Axis axis, LabelId label);

  void SetValuePredicate(NodeIndex n, ValuePredicate pred);

  // Marks the answer node RET(P). Defaults to the root.
  void SetAnswer(NodeIndex n);

  // --- access ---------------------------------------------------------------

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  NodeIndex root() const { return nodes_.empty() ? kNoNode : 0; }
  NodeIndex answer() const { return answer_; }
  const PatternNode& node(NodeIndex i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  PatternNode& mutable_node(NodeIndex i) {
    return nodes_[static_cast<size_t>(i)];
  }
  LabelId label(NodeIndex i) const { return node(i).label; }
  Axis axis(NodeIndex i) const { return node(i).axis; }

  // True when no node has more than one child (a path pattern).
  bool IsPath() const;

  // Leaves in node-index order. The root counts as a leaf only when it has
  // no children.
  std::vector<NodeIndex> Leaves() const;

  // Nodes from the root to `n`, inclusive.
  std::vector<NodeIndex> PathFromRoot(NodeIndex n) const;

  bool IsAncestorOrSelf(NodeIndex a, NodeIndex d) const;
  bool IsDescendantOrSelf(NodeIndex d, NodeIndex a) const {
    return IsAncestorOrSelf(a, d);
  }

  int Depth(NodeIndex n) const;

  // --- transformations ------------------------------------------------------

  // A new pattern that is the subtree rooted at `n` (its root axis becomes
  // kChild, i.e. the extracted pattern is anchored at n's match). If the
  // answer node lies in the subtree it is preserved; otherwise the new
  // pattern's answer is its root.
  TreePattern SubtreePattern(NodeIndex n) const;

  // Deletes the subtree rooted at `n` (must not contain the answer node and
  // must not be the root). Node indices are re-assigned.
  void RemoveSubtree(NodeIndex n);

  // A string key unique to the structure (labels, axes, answer position,
  // value predicates). Two patterns have the same key iff they are equal as
  // unordered trees: each node's child keys are sorted before they are
  // joined, so child order does not matter.
  std::string CanonicalKey() const;

 private:
  std::string SubtreeKey(NodeIndex n) const;

  std::vector<PatternNode> nodes_;
  NodeIndex answer_ = kNoNode;
};

}  // namespace xvr

#endif  // XVR_PATTERN_TREE_PATTERN_H_
