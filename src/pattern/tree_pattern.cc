#include "pattern/tree_pattern.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace xvr {
namespace {

// Numeric comparison when both parse fully as doubles, else lexicographic.
int CompareValues(const std::string& a, const std::string& b) {
  char* end_a = nullptr;
  char* end_b = nullptr;
  const double da = std::strtod(a.c_str(), &end_a);
  const double db = std::strtod(b.c_str(), &end_b);
  const bool numeric = !a.empty() && !b.empty() && *end_a == '\0' &&
                       *end_b == '\0';
  if (numeric) {
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
}

}  // namespace

bool ValuePredicate::Matches(const std::string& actual) const {
  const int cmp = CompareValues(actual, value);
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    case Op::kGe:
      return cmp >= 0;
  }
  return false;
}

TreePattern::NodeIndex TreePattern::AddRoot(LabelId label, Axis axis) {
  XVR_CHECK(nodes_.empty()) << "AddRoot called twice";
  PatternNode n;
  n.label = label;
  n.axis = axis;
  n.parent = kNoNode;
  nodes_.push_back(std::move(n));
  answer_ = 0;
  return 0;
}

TreePattern::NodeIndex TreePattern::AddChild(NodeIndex parent, Axis axis,
                                             LabelId label) {
  XVR_CHECK(parent >= 0 && static_cast<size_t>(parent) < nodes_.size());
  const NodeIndex i = static_cast<NodeIndex>(nodes_.size());
  PatternNode n;
  n.label = label;
  n.axis = axis;
  n.parent = parent;
  nodes_.push_back(std::move(n));
  nodes_[static_cast<size_t>(parent)].children.push_back(i);
  return i;
}

void TreePattern::SetValuePredicate(NodeIndex n, ValuePredicate pred) {
  nodes_[static_cast<size_t>(n)].value_pred = std::move(pred);
}

void TreePattern::SetAnswer(NodeIndex n) {
  XVR_CHECK(n >= 0 && static_cast<size_t>(n) < nodes_.size());
  answer_ = n;
}

bool TreePattern::IsPath() const {
  for (const PatternNode& n : nodes_) {
    if (n.children.size() > 1) return false;
  }
  return true;
}

std::vector<TreePattern::NodeIndex> TreePattern::Leaves() const {
  std::vector<NodeIndex> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].children.empty()) {
      out.push_back(static_cast<NodeIndex>(i));
    }
  }
  return out;
}

std::vector<TreePattern::NodeIndex> TreePattern::PathFromRoot(
    NodeIndex n) const {
  std::vector<NodeIndex> path;
  for (NodeIndex cur = n; cur != kNoNode; cur = node(cur).parent) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool TreePattern::IsAncestorOrSelf(NodeIndex a, NodeIndex d) const {
  for (NodeIndex cur = d; cur != kNoNode; cur = node(cur).parent) {
    if (cur == a) return true;
  }
  return false;
}

int TreePattern::Depth(NodeIndex n) const {
  int depth = 0;
  for (NodeIndex cur = node(n).parent; cur != kNoNode;
       cur = node(cur).parent) {
    ++depth;
  }
  return depth;
}

TreePattern TreePattern::SubtreePattern(NodeIndex n) const {
  TreePattern out;
  // Map old index -> new index while copying in DFS order.
  std::vector<std::pair<NodeIndex, NodeIndex>> stack;  // (old, new parent)
  const NodeIndex new_root = out.AddRoot(node(n).label, Axis::kChild);
  if (node(n).value_pred.has_value()) {
    out.SetValuePredicate(new_root, *node(n).value_pred);
  }
  NodeIndex mapped_answer = (n == answer_) ? new_root : kNoNode;
  for (auto it = node(n).children.rbegin(); it != node(n).children.rend();
       ++it) {
    stack.emplace_back(*it, new_root);
  }
  while (!stack.empty()) {
    const auto [old_i, new_parent] = stack.back();
    stack.pop_back();
    const PatternNode& old_node = node(old_i);
    const NodeIndex new_i =
        out.AddChild(new_parent, old_node.axis, old_node.label);
    if (old_node.value_pred.has_value()) {
      out.SetValuePredicate(new_i, *old_node.value_pred);
    }
    if (old_i == answer_) {
      mapped_answer = new_i;
    }
    for (auto it = old_node.children.rbegin(); it != old_node.children.rend();
         ++it) {
      stack.emplace_back(*it, new_i);
    }
  }
  out.SetAnswer(mapped_answer == kNoNode ? new_root : mapped_answer);
  return out;
}

void TreePattern::RemoveSubtree(NodeIndex n) {
  XVR_CHECK(n != root()) << "cannot remove the pattern root";
  XVR_CHECK(!IsAncestorOrSelf(n, answer_))
      << "cannot remove the subtree containing the answer node";
  // Collect the doomed indices.
  std::vector<bool> doomed(nodes_.size(), false);
  std::vector<NodeIndex> stack = {n};
  while (!stack.empty()) {
    const NodeIndex i = stack.back();
    stack.pop_back();
    doomed[static_cast<size_t>(i)] = true;
    for (NodeIndex c : node(i).children) stack.push_back(c);
  }
  // Detach from the parent.
  auto& siblings = nodes_[static_cast<size_t>(node(n).parent)].children;
  siblings.erase(std::find(siblings.begin(), siblings.end(), n));
  // Compact with an index remap.
  std::vector<NodeIndex> remap(nodes_.size(), kNoNode);
  std::vector<PatternNode> kept;
  kept.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!doomed[i]) {
      remap[i] = static_cast<NodeIndex>(kept.size());
      kept.push_back(std::move(nodes_[i]));
    }
  }
  for (PatternNode& node : kept) {
    if (node.parent != kNoNode) {
      node.parent = remap[static_cast<size_t>(node.parent)];
    }
    for (NodeIndex& c : node.children) {
      c = remap[static_cast<size_t>(c)];
    }
  }
  nodes_ = std::move(kept);
  answer_ = remap[static_cast<size_t>(answer_)];
}

std::string TreePattern::SubtreeKey(NodeIndex n) const {
  const PatternNode& pn = node(n);
  std::string key;
  key += (pn.axis == Axis::kChild) ? '/' : '~';
  key += std::to_string(pn.label);
  if (pn.value_pred.has_value()) {
    key += "[@";
    key += pn.value_pred->attribute;
    key += std::to_string(static_cast<int>(pn.value_pred->op));
    key += pn.value_pred->value;
    key += ']';
  }
  if (n == answer_) {
    key += '!';
  }
  // Children keys, sorted, to be order independent.
  std::vector<std::string> child_keys;
  child_keys.reserve(pn.children.size());
  for (NodeIndex c : pn.children) {
    child_keys.push_back(SubtreeKey(c));
  }
  std::sort(child_keys.begin(), child_keys.end());
  key += '(';
  for (const std::string& ck : child_keys) {
    key += ck;
    key += ',';
  }
  key += ')';
  return key;
}

std::string TreePattern::CanonicalKey() const {
  if (nodes_.empty()) return "";
  return SubtreeKey(root());
}

}  // namespace xvr
