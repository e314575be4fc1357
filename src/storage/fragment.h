#ifndef XVR_STORAGE_FRAGMENT_H_
#define XVR_STORAGE_FRAGMENT_H_

// A materialized view fragment: the XML subtree rooted at one answer node of
// a view, together with the extended Dewey code of that root.
//
// Fragments are self-contained — they carry labels (as global LabelIds),
// per-node Dewey components, text and attributes — so the rewriter can
// refine and join them, and extract query results, without ever touching the
// base document (the paper's core requirement, §I/§V).
//
// Storage layout (the hot-path memory architecture's storage layer): nodes
// are stored in PREORDER in one contiguous array, and the tree topology is
// offset-based (CSR):
//
//   nodes_[i]         label, parent, dewey component, child range, subtree end
//   child_index_      all child lists back to back; node i's children are
//                     child_index_[children_begin .. children_end), in
//                     document order
//   texts_, attrs_    sorted side arrays keyed by node index (binary search)
//
// Preorder means the proper descendants of node i are exactly the index
// range (i, subtree_end), so descendant-axis walks are linear scans over the
// node array instead of pointer-chasing through per-node child vectors. A
// fragment owns exactly three flat buffers regardless of its shape, which is
// also what makes stored views cheap to ship wholesale (serde below).

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "xml/dewey.h"
#include "xml/label_dict.h"
#include "xml/xml_tree.h"

namespace xvr {

struct FragmentNode {
  LabelId label = kInvalidLabel;
  int32_t parent = -1;           // -1 for the fragment root
  uint32_t dewey_component = 0;  // last component of its absolute code
  // CSR child range into FlatFragment::child_index_.
  uint32_t children_begin = 0;
  uint32_t children_end = 0;
  // One past the last node of this node's subtree (preorder contiguity).
  uint32_t subtree_end = 0;
};

// Reusable evaluation scratch for the anchored-pattern walks. One per
// ExecutionContext (inside RewriteScratch); the epoch counter makes the
// embedding memo reusable across fragments without clearing it, so the
// refinement loop performs no per-fragment allocation at all.
struct FragmentScratch {
  // Flat [pattern.size() x fragment.size()] embedding memo; a cell is
  // valid only when its epoch matches the current one.
  std::vector<int8_t> memo;
  std::vector<uint32_t> memo_epoch;
  uint32_t epoch = 0;
  // Frontier buffers for EvaluateAnchored's root-to-answer propagation.
  std::vector<int32_t> reach;
  std::vector<int32_t> next;
  std::vector<uint32_t> seen_epoch;
  uint32_t seen_generation = 0;
};

class FlatFragment {
 public:
  FlatFragment() = default;

  // Copies the subtree of `tree` rooted at `root`. The tree must have Dewey
  // codes assigned.
  static FlatFragment FromTree(const XmlTree& tree, NodeId root);

  // FromTree(tree, root).ByteSize(), computed without building the
  // fragment: an allocation-free preorder walk. The walk stops once the
  // running total passes `limit` and returns that partial total, which is
  // then above `limit`.
  static size_t SubtreeByteSize(const XmlTree& tree, NodeId root,
                                size_t limit = SIZE_MAX);

  const DeweyCode& root_code() const { return root_code_; }
  size_t size() const { return nodes_.size(); }
  const FragmentNode& node(int32_t i) const {
    return nodes_[static_cast<size_t>(i)];
  }
  // Children of node i in document order (CSR slice).
  std::span<const int32_t> children(int32_t i) const {
    const FragmentNode& n = nodes_[static_cast<size_t>(i)];
    return {child_index_.data() + n.children_begin,
            n.children_end - n.children_begin};
  }
  // Preorder subtree bound: proper descendants of i are (i, subtree_end(i)).
  int32_t subtree_end(int32_t i) const {
    return static_cast<int32_t>(nodes_[static_cast<size_t>(i)].subtree_end);
  }
  // The raw layout arrays, for the structural validators
  // (analysis/validate.h: ValidateFlatFragmentLayout).
  std::span<const FragmentNode> raw_nodes() const { return nodes_; }
  std::span<const int32_t> raw_child_index() const { return child_index_; }
  const std::string* text(int32_t i) const;
  const std::string* attribute(int32_t i, const std::string& name) const;

  // Absolute extended Dewey code of a fragment node.
  DeweyCode AbsoluteCode(int32_t i) const;

  // --- anchored pattern evaluation -----------------------------------------
  //
  // Compensating patterns are anchored: the pattern root corresponds to the
  // fragment root (the view's answer node). Axes are interpreted inside the
  // fragment. The walks keep their memo in `scratch` (no allocation once
  // warm) and scan descendant axes as linear preorder ranges; the
  // scratch-free forms run the same walk with call-local scratch.

  // True iff the pattern embeds with pattern-root -> fragment-root.
  [[nodiscard]] bool MatchesAnchored(const TreePattern& pattern,
                                     FragmentScratch* scratch) const;
  [[nodiscard]] bool MatchesAnchored(const TreePattern& pattern) const {
    FragmentScratch scratch;
    return MatchesAnchored(pattern, &scratch);
  }

  // Every fragment node that is the image of the pattern's answer node in
  // some anchored embedding (ascending). The scratch form appends to *out.
  void EvaluateAnchored(const TreePattern& pattern, FragmentScratch* scratch,
                        std::vector<int32_t>* out) const;
  std::vector<int32_t> EvaluateAnchored(const TreePattern& pattern) const {
    FragmentScratch scratch;
    std::vector<int32_t> out;
    EvaluateAnchored(pattern, &scratch, &out);
    return out;
  }

  // --- serialization --------------------------------------------------------
  //
  // The image (v2) starts with the kFlatMagic marker and stores nodes in
  // preorder with text/attr tables sorted by node id, one entry per node —
  // byte-for-byte deterministic. Deserialize rejects any image that breaks
  // this layout with PARSE_ERROR.

  static constexpr uint32_t kFlatMagic = 0x46524732;  // "FRG2" (LE "2GRF")

  std::string Serialize() const;
  static Result<FlatFragment> Deserialize(const std::string& bytes);

  // Bytes the fragment occupies when serialized (the 128 KB budget metric).
  // SubtreeByteSize computes the same figure from the tree.
  size_t ByteSize() const;

 private:
  bool NodeMatches(const TreePattern& pattern, TreePattern::NodeIndex pn,
                   int32_t fn) const;
  // Epoch-validated memo owned by `scratch`.
  bool Embeds(const TreePattern& pattern, TreePattern::NodeIndex pn,
              int32_t fn, FragmentScratch* scratch) const;
  // Rebuilds child_index_/children ranges/subtree_end from nodes_[].parent.
  // nodes_ must be in preorder.
  void BuildTopology();

  const std::string* FindText(int32_t i) const;
  const std::vector<XmlAttribute>* FindAttrs(int32_t i) const;

  DeweyCode root_code_;
  std::vector<FragmentNode> nodes_;  // node 0 is the root; preorder
  std::vector<int32_t> child_index_;
  // Sorted by node index (document order in preorder).
  std::vector<std::pair<int32_t, std::string>> texts_;
  std::vector<std::pair<int32_t, std::vector<XmlAttribute>>> attrs_;
};

// The serving code predates the flat layout and names the type Fragment.
using Fragment = FlatFragment;

}  // namespace xvr

#endif  // XVR_STORAGE_FRAGMENT_H_
