#ifndef XVR_XML_XML_TREE_H_
#define XVR_XML_XML_TREE_H_

// The XML data model of the paper (§II): an unordered tree of labeled nodes.
//
// Nodes are stored index-based in a flat vector (first-child / next-sibling
// links) for cache locality; text content and attributes live in side
// tables since most elements of structural workloads carry neither, found
// through one dense per-node slot each.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xml/dewey.h"
#include "xml/label_dict.h"

namespace xvr {

using NodeId = int32_t;
inline constexpr NodeId kNullNode = -1;

struct XmlNode {
  LabelId label = kInvalidLabel;
  NodeId parent = kNullNode;
  NodeId first_child = kNullNode;
  NodeId last_child = kNullNode;
  NodeId next_sibling = kNullNode;
};

struct XmlAttribute {
  std::string name;
  std::string value;
};

class Fst;  // defined in xml/fst.h

class XmlTree {
 public:
  XmlTree() = default;

  // Movable but not copyable: trees can be large and hold a label dict.
  XmlTree(XmlTree&&) = default;
  XmlTree& operator=(XmlTree&&) = default;
  XmlTree(const XmlTree&) = delete;
  XmlTree& operator=(const XmlTree&) = delete;

  // --- construction -------------------------------------------------------

  // Creates the root element. Must be called exactly once, first.
  NodeId CreateRoot(LabelId label);

  // Appends a new last child under `parent` and returns its id.
  NodeId AppendChild(NodeId parent, LabelId label);

  void SetText(NodeId node, std::string text);
  void AddAttribute(NodeId node, std::string name, std::string value);

  LabelDict& labels() { return labels_; }
  const LabelDict& labels() const { return labels_; }

  // --- access --------------------------------------------------------------

  NodeId root() const { return nodes_.empty() ? kNullNode : 0; }
  size_t size() const { return nodes_.size(); }

  const XmlNode& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  LabelId label(NodeId id) const { return node(id).label; }
  const std::string& label_name(NodeId id) const {
    return labels_.Name(node(id).label);
  }

  // Text of a node, or nullptr if it has none.
  const std::string* text(NodeId id) const;
  // Attributes of a node, or nullptr if it has none.
  const std::vector<XmlAttribute>* attributes(NodeId id) const;
  // Value of one attribute, or nullptr.
  const std::string* attribute(NodeId id, const std::string& name) const;

  // Children of `id` in document order.
  std::vector<NodeId> Children(NodeId id) const;

  // Number of edges from the root (root is depth 0).
  int Depth(NodeId id) const;

  // True if `a` is an ancestor of `d` (proper), or equal when `or_self`.
  bool IsAncestor(NodeId a, NodeId d) const;
  bool IsAncestorOrSelf(NodeId a, NodeId d) const;

  // Number of nodes in the subtree rooted at `id` (including `id`).
  size_t SubtreeSize(NodeId id) const;

  // --- extended Dewey codes ------------------------------------------------

  // Builds the schema-derived FST and assigns an extended Dewey code to every
  // node. Must be called after the tree is fully built; call again if the
  // tree changed.
  void AssignDeweyCodes();

  bool has_dewey() const { return !dewey_.empty(); }
  const DeweyCode& dewey(NodeId id) const {
    return dewey_[static_cast<size_t>(id)];
  }

  // The transducer built by AssignDeweyCodes (null before the first call).
  const Fst* fst() const { return fst_.get(); }

  // Finds the node with exactly this code, or kNullNode. O(depth) descent.
  NodeId FindByDewey(const DeweyCode& code) const;

 private:
  std::vector<XmlNode> nodes_;
  LabelDict labels_;
  // Per node, its index into texts_ / attrs_, or -1 for none.
  std::vector<int32_t> text_slot_;
  std::vector<int32_t> attrs_slot_;
  std::vector<std::string> texts_;
  std::vector<std::vector<XmlAttribute>> attrs_;
  std::vector<DeweyCode> dewey_;
  std::shared_ptr<Fst> fst_;
};

}  // namespace xvr

#endif  // XVR_XML_XML_TREE_H_
