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
// Storage layout: a fragment is one heap block, and FlatFragment is a
// one-pointer handle that owns it. The block holds, in order:
//
//   FragmentBlockHeader        the counts of every section below
//   uint32_t[code_depth]       the root's extended Dewey code
//   FragmentNode[num_nodes]    the nodes in PREORDER: label, parent, Dewey
//                              component and subtree end
//   FragmentText[num_texts]    (node, text), node ids strictly ascending
//   FragmentAttrList[...]      (node, attribute range), node ids strictly
//                              ascending, ranges back to back
//   FragmentAttr[num_attrs]    (name, value)
//   char[pool_bytes]           the text, name and value bytes
//
// Preorder means the proper descendants of node i are exactly the index
// range (i, subtree_end), so descendant-axis walks are linear scans over the
// node array, and i's children are i + 1 and then each previous child's
// subtree end, while below i's own. The block is what a fragment costs in
// memory, within a few bytes of its image (serde below), whatever its shape.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "xml/dewey.h"
#include "xml/label_dict.h"
#include "xml/xml_tree.h"

namespace xvr {

struct FragmentBlockHeader {
  uint32_t code_depth = 0;
  uint32_t num_nodes = 0;
  uint32_t num_texts = 0;
  uint32_t num_attr_lists = 0;
  uint32_t num_attrs = 0;
  uint32_t pool_bytes = 0;
};

struct FragmentNode {
  LabelId label = kInvalidLabel;
  int32_t parent = -1;           // -1 for the fragment root
  uint32_t dewey_component = 0;  // last component of its absolute code
  // One past the last node of this node's subtree (preorder contiguity).
  uint32_t subtree_end = 0;
};

// A string in the block's byte pool.
struct PoolString {
  uint32_t offset = 0;
  uint32_t length = 0;
};

struct FragmentText {
  int32_t node = 0;
  PoolString text;
};

// The attributes of one node: [begin, end) of the attribute array.
struct FragmentAttrList {
  int32_t node = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

struct FragmentAttr {
  PoolString name;
  PoolString value;
};

// Byte offsets of a block's sections, from its header's counts; `end` is
// the block size.
struct FragmentBlockLayout {
  size_t code = 0;
  size_t nodes = 0;
  size_t texts = 0;
  size_t attr_lists = 0;
  size_t attrs = 0;
  size_t pool = 0;
  size_t end = 0;

  static FragmentBlockLayout Of(const FragmentBlockHeader& header);
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

  // The root's extended Dewey code.
  std::span<const uint32_t> root_code() const {
    if (block_ == nullptr) {
      return {};
    }
    return {code_data(), header().code_depth};
  }
  size_t size() const { return block_ == nullptr ? 0 : header().num_nodes; }
  const FragmentNode& node(int32_t i) const {
    return nodes_data()[static_cast<size_t>(i)];
  }
  // Preorder subtree bound: proper descendants of i are (i, subtree_end(i)).
  int32_t subtree_end(int32_t i) const {
    return static_cast<int32_t>(node(i).subtree_end);
  }
  std::optional<std::string_view> text(int32_t i) const;
  std::optional<std::string_view> attribute(int32_t i,
                                            std::string_view name) const;

  // Absolute extended Dewey code of a fragment node.
  DeweyCode AbsoluteCode(int32_t i) const;

  // The whole block, for the structural validator (analysis/validate.h:
  // ValidateFlatFragmentLayout). Empty for a default-constructed fragment.
  std::span<const std::byte> block() const;

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
  // Allocates the block for `header`'s counts and writes the header.
  explicit FlatFragment(const FragmentBlockHeader& header);

  const FragmentBlockHeader& header() const {
    return *reinterpret_cast<const FragmentBlockHeader*>(block_.get());
  }
  const uint32_t* code_data() const {
    return reinterpret_cast<const uint32_t*>(block_.get() +
                                             sizeof(FragmentBlockHeader));
  }
  const FragmentNode* nodes_data() const {
    return reinterpret_cast<const FragmentNode*>(code_data() +
                                                 header().code_depth);
  }
  bool NodeMatches(const TreePattern& pattern, TreePattern::NodeIndex pn,
                   int32_t fn) const;
  // Epoch-validated memo owned by `scratch`.
  bool Embeds(const TreePattern& pattern, TreePattern::NodeIndex pn,
              int32_t fn, FragmentScratch* scratch) const;

  // A std::byte array: its storage implicitly creates the header and the
  // section arrays that FromTree and Deserialize write (C++20
  // [intro.object]), so the accessors read them in place. All fields are
  // 32-bit, and new[] aligns the block for them.
  std::unique_ptr<std::byte[]> block_;
};

// The serving code predates the flat layout and names the type Fragment.
using Fragment = FlatFragment;

}  // namespace xvr

#endif  // XVR_STORAGE_FRAGMENT_H_
