#include "storage/fragment.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace xvr {

static_assert(sizeof(FragmentBlockHeader) == 24 &&
                  sizeof(FragmentNode) == 16 && sizeof(FragmentText) == 12 &&
                  sizeof(FragmentAttrList) == 12 &&
                  sizeof(FragmentAttr) == 16,
              "block sections are packed arrays of 32-bit fields");
static_assert(sizeof(FlatFragment) == sizeof(void*),
              "a fragment is a one-pointer handle to its block");

FragmentBlockLayout FragmentBlockLayout::Of(const FragmentBlockHeader& h) {
  FragmentBlockLayout l;
  l.code = sizeof(FragmentBlockHeader);
  l.nodes = l.code + size_t{h.code_depth} * sizeof(uint32_t);
  l.texts = l.nodes + size_t{h.num_nodes} * sizeof(FragmentNode);
  l.attr_lists = l.texts + size_t{h.num_texts} * sizeof(FragmentText);
  l.attrs = l.attr_lists + size_t{h.num_attr_lists} * sizeof(FragmentAttrList);
  l.pool = l.attrs + size_t{h.num_attrs} * sizeof(FragmentAttr);
  l.end = l.pool + h.pool_bytes;
  return l;
}

namespace {

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadString(std::string_view* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || pos_ + len > bytes_.size()) return false;
    *s = std::string_view(bytes_).substr(pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

// The node after `n` in the preorder of root's subtree, or kNullNode after
// its last node. `*up` counts the levels the step rises: 0 when it moves to
// n's first child, k >= 1 when it moves to the next sibling of n's
// (k-1)-th ancestor (k = 1: n's own next sibling).
NodeId NextInPreorder(const XmlTree& tree, NodeId root, NodeId n, int* up) {
  *up = 0;
  if (tree.node(n).first_child != kNullNode) {
    return tree.node(n).first_child;
  }
  for (; n != root; n = tree.node(n).parent) {
    ++*up;
    if (tree.node(n).next_sibling != kNullNode) {
      return tree.node(n).next_sibling;
    }
  }
  return kNullNode;
}

// The image's byte count for a fragment with these counts (see Serialize):
// magic, code depth, code, node count and the two table counts; 12 bytes a
// node; an id and a length or count a table entry; two lengths an
// attribute; and the strings.
template <typename Counts>
size_t ImageBytes(const Counts& c) {
  return 20 + 4 * size_t{c.code_depth} + 12 * size_t{c.num_nodes} +
         8 * size_t{c.num_texts} + 8 * size_t{c.num_attr_lists} +
         8 * size_t{c.num_attrs} + size_t{c.pool_bytes};
}

// Counts a fragment's parts in the order a block holds them, which sizes
// both its block and its image. A sink of ReadImage, as BlockWriter is.
struct PartCounts {
  size_t code_depth = 0;
  size_t num_nodes = 0;
  size_t num_texts = 0;
  size_t num_attr_lists = 0;
  size_t num_attrs = 0;
  size_t pool_bytes = 0;

  void AddCode(uint32_t) { ++code_depth; }
  void AddNode(LabelId, int32_t, uint32_t) { ++num_nodes; }
  void AddText(int32_t, std::string_view text) {
    ++num_texts;
    pool_bytes += text.size();
  }
  void AddAttrList(int32_t) { ++num_attr_lists; }
  void AddAttr(std::string_view name, std::string_view value) {
    ++num_attrs;
    pool_bytes += name.size() + value.size();
  }

  // Each count must fit 32 bits.
  FragmentBlockHeader Header() const {
    XVR_CHECK(ImageBytes(*this) <= UINT32_MAX) << "fragment too large";
    return FragmentBlockHeader{static_cast<uint32_t>(code_depth),
                               static_cast<uint32_t>(num_nodes),
                               static_cast<uint32_t>(num_texts),
                               static_cast<uint32_t>(num_attr_lists),
                               static_cast<uint32_t>(num_attrs),
                               static_cast<uint32_t>(pool_bytes)};
  }
};

// Counts the parts of root's subtree in preorder, an allocation-free walk
// that stops once the image passes `limit` bytes.
PartCounts CountSubtree(const XmlTree& tree, NodeId root, size_t limit) {
  PartCounts counts;
  counts.code_depth = tree.dewey(root).depth();
  int up = 0;
  for (NodeId n = root; n != kNullNode && ImageBytes(counts) <= limit;
       n = NextInPreorder(tree, root, n, &up)) {
    counts.AddNode(tree.label(n), 0, 0);
    if (const std::string* text = tree.text(n)) {
      counts.AddText(0, *text);
    }
    if (const std::vector<XmlAttribute>* attrs = tree.attributes(n)) {
      counts.AddAttrList(0);
      for (const XmlAttribute& a : *attrs) {
        counts.AddAttr(a.name, a.value);
      }
    }
  }
  return counts;
}

// Fills a block allocated for its header's counts, each section in order;
// strings go to the pool.
class BlockWriter {
 public:
  explicit BlockWriter(std::byte* block) {
    FragmentBlockHeader h;
    std::memcpy(&h, block, sizeof(h));
    const FragmentBlockLayout l = FragmentBlockLayout::Of(h);
    code_ = reinterpret_cast<uint32_t*>(block + l.code);
    nodes_ = reinterpret_cast<FragmentNode*>(block + l.nodes);
    texts_ = reinterpret_cast<FragmentText*>(block + l.texts);
    lists_ = reinterpret_cast<FragmentAttrList*>(block + l.attr_lists);
    attrs_ = reinterpret_cast<FragmentAttr*>(block + l.attrs);
    pool_ = reinterpret_cast<char*>(block + l.pool);
  }

  void AddCode(uint32_t c) { code_[num_code_++] = c; }
  int32_t AddNode(LabelId label, int32_t parent, uint32_t dewey_component) {
    nodes_[num_nodes_] = FragmentNode{label, parent, dewey_component, 0};
    return static_cast<int32_t>(num_nodes_++);
  }
  void AddText(int32_t node, std::string_view text) {
    texts_[num_texts_++] = FragmentText{node, Pool(text)};
  }
  void AddAttrList(int32_t node) {
    lists_[num_lists_++] = FragmentAttrList{node, num_attrs_, num_attrs_};
  }
  void AddAttr(std::string_view name, std::string_view value) {
    const PoolString n = Pool(name);
    attrs_[num_attrs_++] = FragmentAttr{n, Pool(value)};
    lists_[num_lists_ - 1].end = num_attrs_;
  }

  int32_t parent(int32_t i) const {
    return nodes_[static_cast<size_t>(i)].parent;
  }

  // Sets every subtree_end from the parent links. False unless the nodes
  // are in preorder: node 0 is the root, every other node's parent
  // precedes it, and each node's children tile its subtree range.
  [[nodiscard]] bool Finish() {
    const uint32_t n = num_nodes_;
    for (uint32_t i = 0; i < n; ++i) {
      const int32_t parent = nodes_[i].parent;
      if (i == 0 ? parent != -1
                 : parent < 0 || static_cast<uint32_t>(parent) >= i) {
        return false;
      }
      nodes_[i].subtree_end = i + 1;
    }
    // Children have higher indices: a bottom-up sweep sees each subtree
    // whole before its parent.
    for (uint32_t i = n; i-- > 1;) {
      FragmentNode& p = nodes_[static_cast<size_t>(nodes_[i].parent)];
      p.subtree_end = std::max(p.subtree_end, nodes_[i].subtree_end);
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t c = i + 1; c < nodes_[i].subtree_end;
           c = nodes_[c].subtree_end) {
        if (nodes_[c].parent != static_cast<int32_t>(i)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  PoolString Pool(std::string_view s) {
    const PoolString out{pool_used_, static_cast<uint32_t>(s.size())};
    std::memcpy(pool_ + pool_used_, s.data(), s.size());
    pool_used_ += out.length;
    return out;
  }

  uint32_t* code_;
  FragmentNode* nodes_;
  FragmentText* texts_;
  FragmentAttrList* lists_;
  FragmentAttr* attrs_;
  char* pool_;
  uint32_t num_code_ = 0;
  uint32_t num_nodes_ = 0;
  uint32_t num_texts_ = 0;
  uint32_t num_lists_ = 0;
  uint32_t num_attrs_ = 0;
  uint32_t pool_used_ = 0;
};

// A block's text and attribute tables.
struct Tables {
  std::span<const FragmentText> texts;
  std::span<const FragmentAttrList> attr_lists;
  std::span<const FragmentAttr> attrs;
  const char* pool = nullptr;

  explicit Tables(std::span<const std::byte> block) {
    if (block.empty()) {
      return;
    }
    FragmentBlockHeader h;
    std::memcpy(&h, block.data(), sizeof(h));
    const FragmentBlockLayout l = FragmentBlockLayout::Of(h);
    texts = {reinterpret_cast<const FragmentText*>(block.data() + l.texts),
             h.num_texts};
    attr_lists = {
        reinterpret_cast<const FragmentAttrList*>(block.data() + l.attr_lists),
        h.num_attr_lists};
    attrs = {reinterpret_cast<const FragmentAttr*>(block.data() + l.attrs),
             h.num_attrs};
    pool = reinterpret_cast<const char*>(block.data() + l.pool);
  }

  std::string_view Str(PoolString s) const {
    return {pool + s.offset, s.length};
  }
};

}  // namespace

FlatFragment::FlatFragment(const FragmentBlockHeader& header)
    : block_(new std::byte[FragmentBlockLayout::Of(header).end]) {
  std::memcpy(block_.get(), &header, sizeof(header));
}

FlatFragment FlatFragment::FromTree(const XmlTree& tree, NodeId root) {
  XVR_CHECK(tree.has_dewey()) << "assign Dewey codes before materializing";
  FlatFragment out(CountSubtree(tree, root, SIZE_MAX).Header());
  BlockWriter writer(out.block_.get());
  for (uint32_t c : tree.dewey(root).components()) {
    writer.AddCode(c);
  }
  // Copy in preorder, which is exactly the storage order the flat layout
  // wants; `parent` is the fragment index of tn's parent.
  int up = 0;
  int32_t parent = -1;
  for (NodeId tn = root; tn != kNullNode;) {
    const DeweyCode& code = tree.dewey(tn);
    const int32_t fi =
        writer.AddNode(tree.label(tn), parent, code.at(code.depth() - 1));
    if (const std::string* text = tree.text(tn)) {
      writer.AddText(fi, *text);  // fi ascending -> already sorted
    }
    if (const std::vector<XmlAttribute>* attrs = tree.attributes(tn)) {
      writer.AddAttrList(fi);
      for (const XmlAttribute& a : *attrs) {
        writer.AddAttr(a.name, a.value);
      }
    }
    tn = NextInPreorder(tree, root, tn, &up);
    parent = fi;
    for (; up > 0; --up) {
      parent = writer.parent(parent);
    }
  }
  XVR_CHECK(writer.Finish());
  return out;
}

size_t FlatFragment::SubtreeByteSize(const XmlTree& tree, NodeId root,
                                     size_t limit) {
  return ImageBytes(CountSubtree(tree, root, limit));
}

std::span<const std::byte> FlatFragment::block() const {
  if (block_ == nullptr) {
    return {};
  }
  return {block_.get(), FragmentBlockLayout::Of(header()).end};
}

std::optional<std::string_view> FlatFragment::text(int32_t i) const {
  const Tables tables(block());
  const auto it = std::lower_bound(
      tables.texts.begin(), tables.texts.end(), i,
      [](const FragmentText& entry, int32_t key) { return entry.node < key; });
  if (it == tables.texts.end() || it->node != i) {
    return std::nullopt;
  }
  return tables.Str(it->text);
}

std::optional<std::string_view> FlatFragment::attribute(
    int32_t i, std::string_view name) const {
  const Tables tables(block());
  const auto it = std::lower_bound(
      tables.attr_lists.begin(), tables.attr_lists.end(), i,
      [](const FragmentAttrList& entry, int32_t key) {
        return entry.node < key;
      });
  if (it == tables.attr_lists.end() || it->node != i) {
    return std::nullopt;
  }
  for (uint32_t a = it->begin; a < it->end; ++a) {
    if (tables.Str(tables.attrs[a].name) == name) {
      return tables.Str(tables.attrs[a].value);
    }
  }
  return std::nullopt;
}

DeweyCode FlatFragment::AbsoluteCode(int32_t i) const {
  const std::span<const uint32_t> root = root_code();
  size_t depth = root.size();
  for (int32_t cur = i; cur != 0; cur = node(cur).parent) {
    ++depth;
  }
  // Sized once: the root code, then the path components filled bottom-up.
  std::vector<uint32_t> components(depth);
  std::copy(root.begin(), root.end(), components.begin());
  for (int32_t cur = i; cur != 0; cur = node(cur).parent) {
    components[--depth] = node(cur).dewey_component;
  }
  return DeweyCode(std::move(components));
}

bool FlatFragment::NodeMatches(const TreePattern& pattern,
                               TreePattern::NodeIndex pn, int32_t fn) const {
  const PatternNode& p = pattern.node(pn);
  if (p.label != kWildcardLabel && p.label != node(fn).label) {
    return false;
  }
  if (p.value_pred.has_value()) {
    const std::optional<std::string_view> value =
        attribute(fn, p.value_pred->attribute);
    if (!value.has_value() || !p.value_pred->Matches(std::string(*value))) {
      return false;
    }
  }
  return true;
}

// --- anchored walks (epoched memo, subtree-range descendant scans) -------

namespace {

// Sizes the memo for one pattern-x-fragment evaluation and opens a fresh
// epoch. Cells from earlier fragments/patterns are invalidated by the epoch
// bump alone — no clearing.
void OpenMemoEpoch(size_t cells, size_t nodes, FragmentScratch* scratch) {
  if (scratch->memo.size() < cells) {
    scratch->memo.resize(cells, 0);
    scratch->memo_epoch.resize(cells, 0);
  }
  if (scratch->seen_epoch.size() < nodes) {
    scratch->seen_epoch.resize(nodes, 0);
  }
  if (++scratch->epoch == 0) {  // wrapped: stale cells could alias
    std::fill(scratch->memo_epoch.begin(), scratch->memo_epoch.end(), 0u);
    scratch->epoch = 1;
  }
}

}  // namespace

bool FlatFragment::Embeds(const TreePattern& pattern,
                          TreePattern::NodeIndex pn, int32_t fn,
                          FragmentScratch* scratch) const {
  const size_t idx =
      static_cast<size_t>(pn) * size() + static_cast<size_t>(fn);
  if (scratch->memo_epoch[idx] == scratch->epoch) {
    return scratch->memo[idx] != 0;
  }
  scratch->memo_epoch[idx] = scratch->epoch;
  scratch->memo[idx] = 0;  // in-progress/failed until proven otherwise
  if (!NodeMatches(pattern, pn, fn)) {
    return false;
  }
  const int32_t end = subtree_end(fn);
  for (TreePattern::NodeIndex pc : pattern.node(pn).children) {
    // Children jump from subtree to subtree; proper descendants are the
    // whole contiguous preorder range — linear scans, no stack.
    const bool child_axis = pattern.axis(pc) == Axis::kChild;
    bool found = false;
    for (int32_t fd = fn + 1; fd < end;
         fd = child_axis ? subtree_end(fd) : fd + 1) {
      if (Embeds(pattern, pc, fd, scratch)) {
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  scratch->memo[idx] = 1;
  return true;
}

bool FlatFragment::MatchesAnchored(const TreePattern& pattern,
                                   FragmentScratch* scratch) const {
  if (pattern.empty() || size() == 0) {
    return false;
  }
  OpenMemoEpoch(pattern.size() * size(), size(), scratch);
  return Embeds(pattern, pattern.root(), 0, scratch);
}

void FlatFragment::EvaluateAnchored(const TreePattern& pattern,
                                    FragmentScratch* scratch,
                                    std::vector<int32_t>* out) const {
  if (pattern.empty() || size() == 0) {
    return;
  }
  OpenMemoEpoch(pattern.size() * size(), size(), scratch);
  if (!Embeds(pattern, pattern.root(), 0, scratch)) {
    return;
  }
  scratch->reach.clear();
  scratch->reach.push_back(0);
  const auto chain = pattern.PathFromRoot(pattern.answer());
  for (size_t ci = 1; ci < chain.size() && !scratch->reach.empty(); ++ci) {
    const TreePattern::NodeIndex pc = chain[ci];
    const bool child_axis = pattern.axis(pc) == Axis::kChild;
    scratch->next.clear();
    if (++scratch->seen_generation == 0) {
      std::fill(scratch->seen_epoch.begin(), scratch->seen_epoch.end(), 0u);
      scratch->seen_generation = 1;
    }
    for (int32_t fx : scratch->reach) {
      const int32_t end = subtree_end(fx);
      for (int32_t fd = fx + 1; fd < end;
           fd = child_axis ? subtree_end(fd) : fd + 1) {
        uint32_t& seen = scratch->seen_epoch[static_cast<size_t>(fd)];
        if (seen != scratch->seen_generation &&
            Embeds(pattern, pc, fd, scratch)) {
          seen = scratch->seen_generation;
          scratch->next.push_back(fd);
        }
      }
    }
    scratch->reach.swap(scratch->next);
  }
  std::sort(scratch->reach.begin(), scratch->reach.end());
  out->insert(out->end(), scratch->reach.begin(), scratch->reach.end());
}

// --- serialization ----------------------------------------------------------

namespace {

// Reads a v2 image into `sink` (PartCounts or BlockWriter) part by part, in
// block order, checking its framing: every length within the image, the
// table ids strictly ascending below the node count and no byte past the
// last part. The node order is checked by BlockWriter::Finish.
template <typename Sink>
Status ReadImage(const std::string& bytes, Sink* sink) {
  Reader r(bytes);
  uint32_t magic = 0;
  if (!r.ReadU32(&magic)) {
    return Status::ParseError("truncated fragment (header)");
  }
  if (magic != FlatFragment::kFlatMagic) {
    return Status::ParseError("bad fragment image magic");
  }
  uint32_t depth = 0;
  if (!r.ReadU32(&depth) || depth > bytes.size() / 4) {
    return Status::ParseError("truncated fragment (code depth)");
  }
  for (uint32_t i = 0; i < depth; ++i) {
    uint32_t c = 0;
    if (!r.ReadU32(&c)) {
      return Status::ParseError("truncated fragment (code)");
    }
    sink->AddCode(c);
  }
  uint32_t count = 0;
  if (!r.ReadU32(&count) || count > bytes.size() / 12 + 1) {
    return Status::ParseError("truncated fragment (node count)");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t label = 0;
    uint32_t parent = 0;
    uint32_t dewey_component = 0;
    if (!r.ReadU32(&label) || !r.ReadU32(&parent) ||
        !r.ReadU32(&dewey_component)) {
      return Status::ParseError("truncated fragment (node)");
    }
    sink->AddNode(static_cast<LabelId>(label), static_cast<int32_t>(parent),
                  dewey_component);
  }
  // One entry per node: ids strictly ascending.
  const Status side_table_ids =
      Status::ParseError("corrupt fragment (side-table ids)");
  uint32_t num_texts = 0;
  if (!r.ReadU32(&num_texts) || num_texts > bytes.size() / 8) {
    return Status::ParseError("truncated fragment (texts)");
  }
  for (uint32_t i = 0, next_id = 0; i < num_texts; ++i) {
    uint32_t id = 0;
    std::string_view text;
    if (!r.ReadU32(&id) || id >= count || !r.ReadString(&text)) {
      return Status::ParseError("truncated fragment (text entry)");
    }
    if (id < next_id) {
      return side_table_ids;
    }
    next_id = id + 1;
    sink->AddText(static_cast<int32_t>(id), text);
  }
  uint32_t num_attr_lists = 0;
  if (!r.ReadU32(&num_attr_lists) || num_attr_lists > bytes.size() / 8) {
    return Status::ParseError("truncated fragment (attrs)");
  }
  for (uint32_t i = 0, next_id = 0; i < num_attr_lists; ++i) {
    uint32_t id = 0;
    uint32_t n = 0;
    if (!r.ReadU32(&id) || id >= count || !r.ReadU32(&n) ||
        n > bytes.size() / 8) {
      return Status::ParseError("truncated fragment (attr entry)");
    }
    if (id < next_id) {
      return side_table_ids;
    }
    next_id = id + 1;
    sink->AddAttrList(static_cast<int32_t>(id));
    for (uint32_t j = 0; j < n; ++j) {
      std::string_view name;
      std::string_view value;
      if (!r.ReadString(&name) || !r.ReadString(&value)) {
        return Status::ParseError("truncated fragment (attr value)");
      }
      sink->AddAttr(name, value);
    }
  }
  if (!r.AtEnd()) {
    return Status::ParseError("corrupt fragment (bytes past the image)");
  }
  return Status::Ok();
}

}  // namespace

std::string FlatFragment::Serialize() const {
  std::string out;
  out.reserve(ByteSize());
  PutU32(kFlatMagic, &out);
  const std::span<const uint32_t> code = root_code();
  PutU32(static_cast<uint32_t>(code.size()), &out);
  for (uint32_t c : code) {
    PutU32(c, &out);
  }
  PutU32(static_cast<uint32_t>(size()), &out);
  for (int32_t i = 0; i < static_cast<int32_t>(size()); ++i) {
    const FragmentNode& n = node(i);
    PutU32(static_cast<uint32_t>(n.label), &out);
    PutU32(static_cast<uint32_t>(n.parent), &out);
    PutU32(n.dewey_component, &out);
  }
  const Tables tables(block());
  PutU32(static_cast<uint32_t>(tables.texts.size()), &out);
  for (const FragmentText& t : tables.texts) {
    PutU32(static_cast<uint32_t>(t.node), &out);
    PutString(tables.Str(t.text), &out);
  }
  PutU32(static_cast<uint32_t>(tables.attr_lists.size()), &out);
  for (const FragmentAttrList& list : tables.attr_lists) {
    PutU32(static_cast<uint32_t>(list.node), &out);
    PutU32(list.end - list.begin, &out);
    for (uint32_t a = list.begin; a < list.end; ++a) {
      PutString(tables.Str(tables.attrs[a].name), &out);
      PutString(tables.Str(tables.attrs[a].value), &out);
    }
  }
  return out;
}

Result<FlatFragment> FlatFragment::Deserialize(const std::string& bytes) {
  if (bytes.size() > UINT32_MAX) {
    return Status::ParseError("fragment image too large");
  }
  // The first read checks the image and counts its parts, the second
  // copies them into a block of exactly that size.
  PartCounts counts;
  XVR_RETURN_IF_ERROR(ReadImage(bytes, &counts));
  FlatFragment out(counts.Header());
  BlockWriter writer(out.block_.get());
  XVR_RETURN_IF_ERROR(ReadImage(bytes, &writer));
  if (!writer.Finish()) {
    return Status::ParseError("corrupt fragment (nodes not in preorder)");
  }
  return out;
}

size_t FlatFragment::ByteSize() const {
  return ImageBytes(block_ == nullptr ? FragmentBlockHeader{} : header());
}

}  // namespace xvr
