#include "storage/fragment.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace xvr {
namespace {

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutString(const std::string& s, std::string* out) {
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
  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || pos_ + len > bytes_.size()) return false;
    s->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

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

// The serialized image's byte counts (see Serialize), shared by ByteSize
// and SubtreeByteSize so the format has one owner.
size_t HeaderBytes(size_t code_depth) {
  // Magic, code depth, code, node count and the two table counts.
  return 4 + 4 + code_depth * 4 + 4 + 8;
}
constexpr size_t kNodeBytes = 12;
size_t TextBytes(const std::string& text) { return 8 + text.size(); }
size_t AttrsBytes(const std::vector<XmlAttribute>& list) {
  size_t bytes = 8;
  for (const XmlAttribute& a : list) {
    bytes += 8 + a.name.size() + a.value.size();
  }
  return bytes;
}

}  // namespace

FlatFragment FlatFragment::FromTree(const XmlTree& tree, NodeId root) {
  XVR_CHECK(tree.has_dewey()) << "assign Dewey codes before materializing";
  FlatFragment out;
  out.root_code_ = tree.dewey(root);

  // Copy in preorder, which is exactly the storage order the flat layout
  // wants; `parent` is the fragment index of tn's parent.
  int32_t parent = -1;
  for (NodeId tn = root; tn != kNullNode;) {
    const int32_t fi = static_cast<int32_t>(out.nodes_.size());
    FragmentNode fn;
    fn.label = tree.label(tn);
    fn.parent = parent;
    const DeweyCode& code = tree.dewey(tn);
    fn.dewey_component = code.at(code.depth() - 1);
    out.nodes_.push_back(fn);
    if (const std::string* text = tree.text(tn)) {
      out.texts_.emplace_back(fi, *text);  // fi ascending -> already sorted
    }
    if (const auto* attrs = tree.attributes(tn)) {
      out.attrs_.emplace_back(fi, *attrs);
    }
    int up = 0;
    tn = NextInPreorder(tree, root, tn, &up);
    parent = fi;
    for (; up > 0; --up) {
      parent = out.nodes_[static_cast<size_t>(parent)].parent;
    }
  }
  out.BuildTopology();
  return out;
}

size_t FlatFragment::SubtreeByteSize(const XmlTree& tree, NodeId root,
                                     size_t limit) {
  size_t bytes = HeaderBytes(tree.dewey(root).depth());
  int up = 0;
  for (NodeId n = root; n != kNullNode && bytes <= limit;
       n = NextInPreorder(tree, root, n, &up)) {
    bytes += kNodeBytes;
    if (const std::string* text = tree.text(n)) {
      bytes += TextBytes(*text);
    }
    if (const auto* attrs = tree.attributes(n)) {
      bytes += AttrsBytes(*attrs);
    }
  }
  return bytes;
}

void FlatFragment::BuildTopology() {
  const size_t n = nodes_.size();
  child_index_.clear();
  if (n == 0) {
    return;
  }
  child_index_.resize(n - 1);
  // CSR fill: count children, prefix-sum into ranges, then place child
  // indices in node order (document order, since nodes are in preorder).
  for (FragmentNode& node : nodes_) {
    node.children_begin = 0;
    node.children_end = 0;
  }
  for (size_t i = 1; i < n; ++i) {
    ++nodes_[static_cast<size_t>(nodes_[i].parent)].children_end;
  }
  uint32_t offset = 0;
  for (FragmentNode& node : nodes_) {
    node.children_begin = offset;
    offset += node.children_end;
    node.children_end = node.children_begin;
  }
  for (size_t i = 1; i < n; ++i) {
    FragmentNode& p = nodes_[static_cast<size_t>(nodes_[i].parent)];
    child_index_[p.children_end++] = static_cast<int32_t>(i);
  }

  // Preorder subtree bounds: a node's range ends where its last child's
  // range ends; sweep bottom-up (children have higher indices).
  for (size_t i = 0; i < n; ++i) {
    nodes_[i].subtree_end = static_cast<uint32_t>(i + 1);
  }
  for (size_t i = n; i-- > 1;) {
    FragmentNode& p = nodes_[static_cast<size_t>(nodes_[i].parent)];
    p.subtree_end = std::max(p.subtree_end, nodes_[i].subtree_end);
  }
}

const std::string* FlatFragment::FindText(int32_t i) const {
  auto it = std::lower_bound(
      texts_.begin(), texts_.end(), i,
      [](const auto& entry, int32_t key) { return entry.first < key; });
  return it == texts_.end() || it->first != i ? nullptr : &it->second;
}

const std::vector<XmlAttribute>* FlatFragment::FindAttrs(int32_t i) const {
  auto it = std::lower_bound(
      attrs_.begin(), attrs_.end(), i,
      [](const auto& entry, int32_t key) { return entry.first < key; });
  return it == attrs_.end() || it->first != i ? nullptr : &it->second;
}

const std::string* FlatFragment::text(int32_t i) const { return FindText(i); }

const std::string* FlatFragment::attribute(int32_t i,
                                           const std::string& name) const {
  const std::vector<XmlAttribute>* list = FindAttrs(i);
  if (list == nullptr) return nullptr;
  for (const XmlAttribute& a : *list) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

DeweyCode FlatFragment::AbsoluteCode(int32_t i) const {
  size_t depth = root_code_.depth();
  for (int32_t cur = i; cur != 0; cur = node(cur).parent) {
    ++depth;
  }
  // Sized once: the root code, then the path components filled bottom-up.
  std::vector<uint32_t> components(depth);
  std::copy(root_code_.components().begin(), root_code_.components().end(),
            components.begin());
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
    const std::string* value = attribute(fn, p.value_pred->attribute);
    if (value == nullptr || !p.value_pred->Matches(*value)) {
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
      static_cast<size_t>(pn) * nodes_.size() + static_cast<size_t>(fn);
  if (scratch->memo_epoch[idx] == scratch->epoch) {
    return scratch->memo[idx] != 0;
  }
  scratch->memo_epoch[idx] = scratch->epoch;
  scratch->memo[idx] = 0;  // in-progress/failed until proven otherwise
  if (!NodeMatches(pattern, pn, fn)) {
    return false;
  }
  for (TreePattern::NodeIndex pc : pattern.node(pn).children) {
    bool found = false;
    if (pattern.axis(pc) == Axis::kChild) {
      for (int32_t fc : children(fn)) {
        if (Embeds(pattern, pc, fc, scratch)) {
          found = true;
          break;
        }
      }
    } else {
      // Proper descendants are the contiguous preorder range — a linear
      // scan, no stack.
      const int32_t end = subtree_end(fn);
      for (int32_t fd = fn + 1; fd < end; ++fd) {
        if (Embeds(pattern, pc, fd, scratch)) {
          found = true;
          break;
        }
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
  if (pattern.empty() || nodes_.empty()) {
    return false;
  }
  OpenMemoEpoch(pattern.size() * nodes_.size(), nodes_.size(), scratch);
  return Embeds(pattern, pattern.root(), 0, scratch);
}

void FlatFragment::EvaluateAnchored(const TreePattern& pattern,
                                    FragmentScratch* scratch,
                                    std::vector<int32_t>* out) const {
  if (pattern.empty() || nodes_.empty()) {
    return;
  }
  OpenMemoEpoch(pattern.size() * nodes_.size(), nodes_.size(), scratch);
  if (!Embeds(pattern, pattern.root(), 0, scratch)) {
    return;
  }
  scratch->reach.clear();
  scratch->reach.push_back(0);
  const auto chain = pattern.PathFromRoot(pattern.answer());
  for (size_t ci = 1; ci < chain.size() && !scratch->reach.empty(); ++ci) {
    const TreePattern::NodeIndex pc = chain[ci];
    scratch->next.clear();
    if (++scratch->seen_generation == 0) {
      std::fill(scratch->seen_epoch.begin(), scratch->seen_epoch.end(), 0u);
      scratch->seen_generation = 1;
    }
    auto try_add = [this, &pattern, pc, scratch](int32_t fd) {
      uint32_t& seen = scratch->seen_epoch[static_cast<size_t>(fd)];
      if (seen != scratch->seen_generation &&
          Embeds(pattern, pc, fd, scratch)) {
        seen = scratch->seen_generation;
        scratch->next.push_back(fd);
      }
    };
    for (int32_t fx : scratch->reach) {
      if (pattern.axis(pc) == Axis::kChild) {
        for (int32_t fc : children(fx)) {
          try_add(fc);
        }
      } else {
        const int32_t end = subtree_end(fx);
        for (int32_t fd = fx + 1; fd < end; ++fd) {
          try_add(fd);
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

// Parents must precede children (node 0 is the root with parent -1), and
// every node's parent must lie on the root path of the node before it —
// exactly the images whose node order is a preorder.
bool IsPreorder(const std::vector<FragmentNode>& nodes) {
  std::vector<int32_t> path;  // root -> the previous node
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int32_t parent = nodes[i].parent;
    if (i == 0) {
      if (parent != -1) return false;
    } else {
      while (!path.empty() && path.back() != parent) path.pop_back();
      if (path.empty()) return false;
    }
    path.push_back(static_cast<int32_t>(i));
  }
  return true;
}

// Side tables are keyed by strictly ascending node id: one entry per node.
template <typename Entry>
bool IdsStrictlyAscending(const std::vector<Entry>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].first >= entries[i].first) return false;
  }
  return true;
}

}  // namespace

std::string FlatFragment::Serialize() const {
  std::string out;
  PutU32(kFlatMagic, &out);
  PutU32(static_cast<uint32_t>(root_code_.depth()), &out);
  for (uint32_t c : root_code_.components()) {
    PutU32(c, &out);
  }
  PutU32(static_cast<uint32_t>(nodes_.size()), &out);
  for (const FragmentNode& n : nodes_) {
    PutU32(static_cast<uint32_t>(n.label), &out);
    PutU32(static_cast<uint32_t>(n.parent), &out);
    PutU32(n.dewey_component, &out);
  }
  PutU32(static_cast<uint32_t>(texts_.size()), &out);
  for (const auto& [id, text] : texts_) {
    PutU32(static_cast<uint32_t>(id), &out);
    PutString(text, &out);
  }
  PutU32(static_cast<uint32_t>(attrs_.size()), &out);
  for (const auto& [id, list] : attrs_) {
    PutU32(static_cast<uint32_t>(id), &out);
    PutU32(static_cast<uint32_t>(list.size()), &out);
    for (const XmlAttribute& a : list) {
      PutString(a.name, &out);
      PutString(a.value, &out);
    }
  }
  return out;
}

Result<FlatFragment> FlatFragment::Deserialize(const std::string& bytes) {
  Reader r(bytes);
  FlatFragment out;
  uint32_t magic = 0;
  if (!r.ReadU32(&magic)) {
    return Status::ParseError("truncated fragment (header)");
  }
  if (magic != kFlatMagic) {
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
    out.root_code_.Append(c);
  }
  uint32_t count = 0;
  if (!r.ReadU32(&count) || count > bytes.size() / 12 + 1) {
    return Status::ParseError("truncated fragment (node count)");
  }
  out.nodes_.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t label = 0;
    uint32_t parent = 0;
    if (!r.ReadU32(&label) || !r.ReadU32(&parent) ||
        !r.ReadU32(&out.nodes_[i].dewey_component)) {
      return Status::ParseError("truncated fragment (node)");
    }
    out.nodes_[i].label = static_cast<LabelId>(label);
    out.nodes_[i].parent = static_cast<int32_t>(parent);
  }
  if (!IsPreorder(out.nodes_)) {
    return Status::ParseError("corrupt fragment (nodes not in preorder)");
  }
  uint32_t num_texts = 0;
  if (!r.ReadU32(&num_texts) || num_texts > bytes.size() / 8) {
    return Status::ParseError("truncated fragment (texts)");
  }
  for (uint32_t i = 0; i < num_texts; ++i) {
    uint32_t id = 0;
    std::string text;
    if (!r.ReadU32(&id) || id >= count || !r.ReadString(&text)) {
      return Status::ParseError("truncated fragment (text entry)");
    }
    out.texts_.emplace_back(static_cast<int32_t>(id), std::move(text));
  }
  uint32_t num_attr_nodes = 0;
  if (!r.ReadU32(&num_attr_nodes) || num_attr_nodes > bytes.size() / 8) {
    return Status::ParseError("truncated fragment (attrs)");
  }
  for (uint32_t i = 0; i < num_attr_nodes; ++i) {
    uint32_t id = 0;
    uint32_t n = 0;
    if (!r.ReadU32(&id) || id >= count || !r.ReadU32(&n) ||
        n > bytes.size() / 8) {
      return Status::ParseError("truncated fragment (attr entry)");
    }
    std::vector<XmlAttribute> list;
    for (uint32_t j = 0; j < n; ++j) {
      XmlAttribute a;
      if (!r.ReadString(&a.name) || !r.ReadString(&a.value)) {
        return Status::ParseError("truncated fragment (attr value)");
      }
      list.push_back(std::move(a));
    }
    out.attrs_.emplace_back(static_cast<int32_t>(id), std::move(list));
  }
  if (!IdsStrictlyAscending(out.texts_) ||
      !IdsStrictlyAscending(out.attrs_)) {
    return Status::ParseError("corrupt fragment (side-table ids)");
  }
  out.BuildTopology();
  return out;
}

size_t FlatFragment::ByteSize() const {
  size_t bytes = HeaderBytes(root_code_.depth()) + nodes_.size() * kNodeBytes;
  for (const auto& [id, text] : texts_) {
    (void)id;
    bytes += TextBytes(text);
  }
  for (const auto& [id, list] : attrs_) {
    (void)id;
    bytes += AttrsBytes(list);
  }
  return bytes;
}

}  // namespace xvr
