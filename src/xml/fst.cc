#include "xml/fst.h"

#include <algorithm>

#include "common/logging.h"
#include "xml/xml_tree.h"

namespace xvr {
namespace {
const std::vector<LabelId> kEmptyLabels;
}  // namespace

Fst Fst::Build(const XmlTree& tree) {
  Fst fst;
  if (tree.root() == kNullNode) {
    return fst;
  }
  // Slot 0 is the super-root, whose only child label is the document root's.
  fst.children_.resize(tree.labels().size() + 1);
  fst.children_[0].push_back(tree.label(tree.root()));

  // DFS over the tree collecting, per label, child labels in first-appearance
  // order.
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    std::vector<LabelId>& list =
        fst.children_[static_cast<size_t>(tree.label(id)) + 1];
    for (NodeId c = tree.node(id).first_child; c != kNullNode;
         c = tree.node(c).next_sibling) {
      const LabelId child_label = tree.label(c);
      if (std::find(list.begin(), list.end(), child_label) == list.end()) {
        list.push_back(child_label);
      }
      stack.push_back(c);
    }
  }
  return fst;
}

const std::vector<LabelId>& Fst::ChildLabels(LabelId parent) const {
  // kInvalidLabel (-1) wraps to slot 0; kWildcardLabel (-2) to no slot.
  const size_t slot = static_cast<size_t>(parent) + 1;
  return slot < children_.size() ? children_[slot] : kEmptyLabels;
}

int Fst::ChildIndex(LabelId parent, LabelId child) const {
  const std::vector<LabelId>& labels = ChildLabels(parent);
  const auto it = std::find(labels.begin(), labels.end(), child);
  return it == labels.end() ? -1 : static_cast<int>(it - labels.begin());
}

bool Fst::Decode(std::span<const uint32_t> code, std::vector<LabelId>* path,
                 size_t keep) const {
  XVR_DCHECK(keep <= code.size() && keep <= path->size());
  path->resize(keep);
  path->reserve(code.size());
  LabelId state = keep == 0 ? kInvalidLabel : (*path)[keep - 1];
  for (size_t i = keep; i < code.size(); ++i) {
    const std::vector<LabelId>& labels = ChildLabels(state);
    if (labels.empty()) {
      return false;
    }
    state = labels[code[i] % labels.size()];
    path->push_back(state);
  }
  return true;
}

}  // namespace xvr
