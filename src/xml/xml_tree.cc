#include "xml/xml_tree.h"

#include "common/logging.h"
#include "xml/fst.h"

namespace xvr {

NodeId XmlTree::CreateRoot(LabelId label) {
  XVR_CHECK(nodes_.empty()) << "CreateRoot called twice";
  nodes_.push_back(XmlNode{label, kNullNode, kNullNode, kNullNode, kNullNode});
  text_slot_.push_back(-1);
  attrs_slot_.push_back(-1);
  return 0;
}

NodeId XmlTree::AppendChild(NodeId parent, LabelId label) {
  XVR_CHECK(parent >= 0 && static_cast<size_t>(parent) < nodes_.size());
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(XmlNode{label, parent, kNullNode, kNullNode, kNullNode});
  text_slot_.push_back(-1);
  attrs_slot_.push_back(-1);
  XmlNode& p = nodes_[static_cast<size_t>(parent)];
  if (p.first_child == kNullNode) {
    p.first_child = id;
  } else {
    nodes_[static_cast<size_t>(p.last_child)].next_sibling = id;
  }
  p.last_child = id;
  return id;
}

void XmlTree::SetText(NodeId node, std::string text) {
  int32_t& slot = text_slot_[static_cast<size_t>(node)];
  if (slot < 0) {
    slot = static_cast<int32_t>(texts_.size());
    texts_.emplace_back();
  }
  texts_[static_cast<size_t>(slot)] = std::move(text);
}

void XmlTree::AddAttribute(NodeId node, std::string name, std::string value) {
  int32_t& slot = attrs_slot_[static_cast<size_t>(node)];
  if (slot < 0) {
    slot = static_cast<int32_t>(attrs_.size());
    attrs_.emplace_back();
  }
  attrs_[static_cast<size_t>(slot)].push_back(
      XmlAttribute{std::move(name), std::move(value)});
}

const std::string* XmlTree::text(NodeId id) const {
  const int32_t slot = text_slot_[static_cast<size_t>(id)];
  return slot < 0 ? nullptr : &texts_[static_cast<size_t>(slot)];
}

const std::vector<XmlAttribute>* XmlTree::attributes(NodeId id) const {
  const int32_t slot = attrs_slot_[static_cast<size_t>(id)];
  return slot < 0 ? nullptr : &attrs_[static_cast<size_t>(slot)];
}

const std::string* XmlTree::attribute(NodeId id,
                                      const std::string& name) const {
  const std::vector<XmlAttribute>* list = attributes(id);
  if (list == nullptr) return nullptr;
  for (const XmlAttribute& a : *list) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

std::vector<NodeId> XmlTree::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = node(id).first_child; c != kNullNode;
       c = node(c).next_sibling) {
    out.push_back(c);
  }
  return out;
}

int XmlTree::Depth(NodeId id) const {
  int d = 0;
  for (NodeId n = node(id).parent; n != kNullNode; n = node(n).parent) {
    ++d;
  }
  return d;
}

bool XmlTree::IsAncestor(NodeId a, NodeId d) const {
  for (NodeId n = node(d).parent; n != kNullNode; n = node(n).parent) {
    if (n == a) return true;
  }
  return false;
}

bool XmlTree::IsAncestorOrSelf(NodeId a, NodeId d) const {
  return a == d || IsAncestor(a, d);
}

size_t XmlTree::SubtreeSize(NodeId id) const {
  size_t count = 0;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId c = node(n).first_child; c != kNullNode;
         c = node(c).next_sibling) {
      stack.push_back(c);
    }
  }
  return count;
}

void XmlTree::AssignDeweyCodes() {
  dewey_.assign(nodes_.size(), DeweyCode());
  if (nodes_.empty()) {
    return;
  }
  fst_ = std::make_shared<Fst>(Fst::Build(*this));

  // Root: component is its index among the super-root's child labels (0).
  {
    const int i = fst_->ChildIndex(kInvalidLabel, label(root()));
    XVR_CHECK(i >= 0);
    dewey_[0] = DeweyCode({static_cast<uint32_t>(i)});
  }

  // Iterative pre-order; children of each node are numbered left to right
  // with the smallest value >= previous+1 whose residue selects their label.
  std::vector<NodeId> stack = {root()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const LabelId parent_label = label(id);
    const size_t n = fst_->ChildCount(parent_label);
    uint32_t next = 0;
    for (NodeId c = node(id).first_child; c != kNullNode;
         c = node(c).next_sibling) {
      const int i = fst_->ChildIndex(parent_label, label(c));
      XVR_CHECK(i >= 0 && n > 0);
      const uint32_t residue = static_cast<uint32_t>(i);
      const uint32_t m = static_cast<uint32_t>(n);
      uint32_t component = next + ((residue + m - next % m) % m);
      DeweyCode code = dewey_[static_cast<size_t>(id)];
      code.Append(component);
      dewey_[static_cast<size_t>(c)] = std::move(code);
      next = component + 1;
      stack.push_back(c);
    }
  }
}

NodeId XmlTree::FindByDewey(const DeweyCode& code) const {
  if (!has_dewey() || nodes_.empty()) {
    return kNullNode;
  }
  if (code.empty()) {
    return kNullNode;
  }
  if (dewey_[0] != code.Prefix(1)) {
    return kNullNode;
  }
  NodeId cur = root();
  for (size_t d = 1; d < code.depth(); ++d) {
    const uint32_t want = code.at(d);
    NodeId found = kNullNode;
    for (NodeId c = node(cur).first_child; c != kNullNode;
         c = node(c).next_sibling) {
      const DeweyCode& cc = dewey_[static_cast<size_t>(c)];
      if (cc.at(cc.depth() - 1) == want) {
        found = c;
        break;
      }
    }
    if (found == kNullNode) {
      return kNullNode;
    }
    cur = found;
  }
  return cur;
}

}  // namespace xvr
