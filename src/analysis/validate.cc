#include "analysis/validate.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pattern/normalize.h"
#include "rewrite/prefix_join.h"
#include "vfilter/nfa.h"
#include "xml/dewey.h"
#include "xml/label_dict.h"

namespace xvr {
namespace {

Status Violation(const std::string& what) { return Status::Internal(what); }

bool ValidLabel(LabelId label) {
  return label >= 0 || label == kWildcardLabel;
}

bool ValidAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kDescendant;
}

// Root-to-node labels via the parent chain.
std::vector<LabelId> LabelPathOf(const XmlTree& doc, NodeId id) {
  std::vector<LabelId> path;
  for (NodeId cur = id; cur != kNullNode; cur = doc.node(cur).parent) {
    path.push_back(doc.label(cur));
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// What the layout check leaves to the catalog: every node carries a real
// label, and every node code is FST-decodable to it (the rewriter verifies
// encodings exactly this way, Example 5.1).
Status ValidateFragmentTree(int32_t view_id, size_t seq, const Fragment& f,
                            const Fst& fst) {
  const std::string where =
      "view " + std::to_string(view_id) + " fragment " + std::to_string(seq);
  const int32_t n = static_cast<int32_t>(f.size());
  for (int32_t j = 0; j < n; ++j) {
    const FragmentNode& node = f.node(j);
    if (!ValidLabel(node.label) || node.label == kWildcardLabel) {
      return Violation(where + ": node " + std::to_string(j) +
                       " has invalid label");
    }
    const DeweyCode code = f.AbsoluteCode(j);
    std::vector<LabelId> decoded;
    if (!fst.Decode(code.components(), &decoded)) {
      return Violation(where + ": code " + code.ToString() +
                       " of node " + std::to_string(j) + " is not decodable");
    }
    if (decoded.empty() || decoded.back() != node.label) {
      return Violation(where + ": code " + code.ToString() + " of node " +
                       std::to_string(j) + " decodes to a different label");
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateDocument(const XmlTree& doc) {
  if (doc.size() == 0) {
    return Status::Ok();
  }
  if (!doc.has_dewey()) {
    return Violation("document has no extended Dewey codes");
  }
  if (doc.fst() == nullptr) {
    return Violation("document has no FST");
  }
  const Fst& fst = *doc.fst();
  const NodeId n = static_cast<NodeId>(doc.size());
  for (NodeId id = 0; id < n; ++id) {
    const DeweyCode& code = doc.dewey(id);
    const std::string where = "node " + std::to_string(id) + " (code " +
                              code.ToString() + ")";
    if (static_cast<int>(code.depth()) != doc.Depth(id) + 1) {
      return Violation(where + ": code depth disagrees with tree depth");
    }
    const NodeId parent = doc.node(id).parent;
    if (parent != kNullNode) {
      const DeweyCode& parent_code = doc.dewey(parent);
      if (parent_code.depth() + 1 != code.depth() ||
          !parent_code.IsPrefixOf(code)) {
        return Violation(where + ": code does not extend parent code " +
                         parent_code.ToString());
      }
    }
    // FST decodability (§II): the code alone must recover the label path.
    std::vector<LabelId> decoded;
    if (!fst.Decode(code.components(), &decoded)) {
      return Violation(where + ": code is not FST-decodable");
    }
    if (decoded != LabelPathOf(doc, id)) {
      return Violation(where + ": code decodes to the wrong label path");
    }
    // Extended-Dewey document order: sibling codes strictly increase.
    const std::vector<NodeId> children = doc.Children(id);
    for (size_t i = 1; i < children.size(); ++i) {
      if (!(doc.dewey(children[i - 1]) < doc.dewey(children[i]))) {
        return Violation("children of node " + std::to_string(id) +
                         " are not in increasing Dewey order at child " +
                         std::to_string(i));
      }
    }
  }
  return Status::Ok();
}

Status ValidateTreePattern(const TreePattern& pattern,
                           bool require_normalized) {
  if (pattern.empty()) {
    return Violation("empty tree pattern");
  }
  const int32_t n = static_cast<int32_t>(pattern.size());
  if (pattern.node(0).parent != -1) {
    return Violation("pattern root has a parent");
  }
  if (pattern.answer() < 0 || pattern.answer() >= n) {
    return Violation("answer node " + std::to_string(pattern.answer()) +
                     " out of range");
  }
  for (int32_t i = 0; i < n; ++i) {
    const PatternNode& node = pattern.node(i);
    const std::string where = "pattern node " + std::to_string(i);
    if (!ValidLabel(node.label)) {
      return Violation(where + ": invalid label " +
                       std::to_string(node.label));
    }
    if (!ValidAxis(node.axis)) {
      return Violation(where + ": invalid axis");
    }
    if (i > 0 && (node.parent < 0 || node.parent >= n)) {
      return Violation(where + ": out-of-range parent");
    }
    for (const int32_t c : node.children) {
      if (c <= 0 || c >= n) {
        return Violation(where + ": out-of-range child " + std::to_string(c));
      }
      if (pattern.node(c).parent != i) {
        return Violation(where + ": child " + std::to_string(c) +
                         " does not point back");
      }
    }
    if (i > 0) {
      const std::vector<int32_t>& siblings =
          pattern.node(node.parent).children;
      if (std::count(siblings.begin(), siblings.end(), i) != 1) {
        return Violation(where +
                         " is not listed exactly once by its parent");
      }
    }
    if (node.value_pred.has_value() && node.value_pred->attribute.empty()) {
      return Violation(where + ": value predicate without attribute");
    }
  }
  // Parent/child mutuality plus a reachability count rules out cycles and
  // disconnected nodes.
  std::vector<int32_t> stack = {0};
  int32_t reached = 0;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  seen[0] = 1;
  while (!stack.empty()) {
    const int32_t cur = stack.back();
    stack.pop_back();
    ++reached;
    for (const int32_t c : pattern.node(cur).children) {
      if (seen[static_cast<size_t>(c)]) {
        return Violation("pattern node " + std::to_string(c) +
                         " reached twice (cycle or shared child)");
      }
      seen[static_cast<size_t>(c)] = 1;
      stack.push_back(c);
    }
  }
  if (reached != n) {
    return Violation("pattern has unreachable nodes (" +
                     std::to_string(reached) + " of " + std::to_string(n) +
                     " reached)");
  }
  if (require_normalized) {
    const Decomposition d = Decompose(pattern);
    for (size_t i = 0; i < d.paths.size(); ++i) {
      XVR_RETURN_IF_ERROR(
          ValidatePathPattern(d.paths[i], /*require_normalized=*/true));
    }
  }
  return Status::Ok();
}

Status ValidatePathPattern(const PathPattern& path, bool require_normalized) {
  if (path.empty()) {
    return Violation("empty path pattern");
  }
  for (size_t i = 0; i < path.steps().size(); ++i) {
    const PathStep& step = path.steps()[i];
    const std::string where = "path step " + std::to_string(i);
    if (!ValidLabel(step.label)) {
      return Violation(where + ": invalid label " +
                       std::to_string(step.label));
    }
    if (!ValidAxis(step.axis)) {
      return Violation(where + ": invalid axis");
    }
    if (step.pred.has_value() && step.pred->attribute.empty()) {
      return Violation(where + ": value predicate without attribute");
    }
  }
  if (require_normalized && !IsNormalizedPath(path)) {
    return Violation("path pattern is not in §III-C normal form");
  }
  return Status::Ok();
}

Status ValidateVFilter(const VFilter& filter) {
  const PathNfa& nfa = filter.nfa();
  const CowTable<PathNfa::State>& states = nfa.states();
  if (states.empty()) {
    return Violation("NFA has no start state");
  }
  const auto in_range = [&](StateId s) {
    return s >= 0 && s < static_cast<StateId>(states.size());
  };
  // The slot table first (the accept checks below index it): each view
  // holds one slot, every freed slot is empty and listed once, and the
  // rest are held.
  const std::vector<ViewSlot>& slots = filter.slots();
  std::unordered_map<int32_t, int32_t> slot_of;  // view id -> its slot
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    const int32_t view_id = slots[slot].view_id;
    if (view_id < 0) {
      continue;
    }
    const auto [it, inserted] =
        slot_of.emplace(view_id, static_cast<int32_t>(slot));
    if (!inserted) {
      return Violation("slot " + std::to_string(slot) + " holds view " +
                       std::to_string(view_id) + ", whose slot is " +
                       std::to_string(it->second));
    }
  }
  if (slot_of.size() != filter.num_views()) {
    return Violation(std::to_string(filter.num_views()) +
                     " registered views hold " +
                     std::to_string(slot_of.size()) + " slots");
  }
  std::vector<bool> freed(slots.size(), false);
  for (const int32_t slot : filter.free_slots()) {
    if (slot < 0 || static_cast<size_t>(slot) >= slots.size() ||
        freed[static_cast<size_t>(slot)] ||
        slots[static_cast<size_t>(slot)].view_id >= 0) {
      return Violation("freed slot " + std::to_string(slot) +
                       " is out of range, listed twice or holds a view");
    }
    freed[static_cast<size_t>(slot)] = true;
  }
  // (view_id, path_id) -> how often it is registered; must be exactly once.
  std::map<std::pair<int32_t, int32_t>, int> registrations;
  for (const auto& [si, s] : states) {
    const std::string where = "NFA state " + std::to_string(si);
    for (const auto& [label, t] : s.label_trans) {
      if (label < 0 && label != kWildcardLabel) {
        return Violation(where + ": transition on invalid label " +
                         std::to_string(label));
      }
      if (!in_range(t)) {
        return Violation(where + ": dangling label transition to state " +
                         std::to_string(t));
      }
    }
    if (s.star_trans != kNoState && !in_range(s.star_trans)) {
      return Violation(where + ": dangling '*' transition to state " +
                       std::to_string(s.star_trans));
    }
    if (s.loop_state != kNoState) {
      if (!in_range(s.loop_state)) {
        return Violation(where + ": dangling '//' loop edge to state " +
                         std::to_string(s.loop_state));
      }
      if (!states[s.loop_state].is_loop) {
        return Violation(where + ": loop edge to non-loop state " +
                         std::to_string(s.loop_state));
      }
    }
    if (s.is_accepting != !s.accepts.empty()) {
      return Violation(where + ": is_accepting disagrees with accept list");
    }
    for (const AcceptEntry& e : s.accepts) {
      const auto slot = slot_of.find(e.view_id);
      if (slot == slot_of.end()) {
        return Violation(where + ": accept entry for unregistered view " +
                         std::to_string(e.view_id));
      }
      const int32_t num_paths =
          slots[static_cast<size_t>(slot->second)].num_paths;
      if (e.path_id < 0 || e.path_id >= num_paths) {
        return Violation(where + ": accept path id " +
                         std::to_string(e.path_id) + " outside |D(V)|=" +
                         std::to_string(num_paths) + " of view " +
                         std::to_string(e.view_id));
      }
      if (e.slot != slot->second) {
        return Violation(where + ": accept entry of view " +
                         std::to_string(e.view_id) + " carries slot " +
                         std::to_string(e.slot) + ", not its view's");
      }
      if (e.length <= 0) {
        return Violation(where + ": accept entry with non-positive length");
      }
      ++registrations[{e.view_id, e.path_id}];
    }
  }
  // Every distinct path of every registered view is accepted — once for its
  // raw form, plus once more when normalization changed it (both insertions
  // share the path id; see VFilter::AddView).
  for (const auto& [view_id, num_paths] : filter.ViewPathCounts()) {
    if (num_paths <= 0) {
      return Violation("view " + std::to_string(view_id) +
                       " registered with non-positive |D(V)|");
    }
    for (int32_t path_id = 0; path_id < num_paths; ++path_id) {
      const auto it = registrations.find({view_id, path_id});
      const int count = it == registrations.end() ? 0 : it->second;
      if (count < 1 || count > 2) {
        return Violation("path " + std::to_string(path_id) + " of view " +
                         std::to_string(view_id) + " has " +
                         std::to_string(count) +
                         " accept registrations (want 1 or 2)");
      }
    }
  }
  return Status::Ok();
}

Status ValidateFragmentStore(const FragmentStore& store, const Fst& fst,
                             const ViewLookup& lookup) {
  for (const int32_t view_id : store.view_ids()) {
    XVR_RETURN_IF_ERROR(ValidateViewFragments(store, view_id, fst, lookup));
  }
  return Status::Ok();
}

Status ValidateViewFragments(const FragmentStore& store, int32_t view_id,
                             const Fst& fst, const ViewLookup& lookup) {
  const std::vector<Fragment>* view_fragments = store.GetView(view_id);
  if (view_fragments == nullptr) {
    return Violation("view " + std::to_string(view_id) +
                     " is not materialized");
  }
  {
    const std::vector<Fragment>& fragments = *view_fragments;
    // The view's root-to-answer path: every fragment root must sit at a
    // document position reachable by it (§V join precondition).
    PathPattern answer_path;
    if (lookup != nullptr) {
      if (const TreePattern* view = lookup(view_id)) {
        answer_path = PathTo(*view, view->answer());
      }
    }
    for (size_t seq = 0; seq < fragments.size(); ++seq) {
      const Fragment& f = fragments[seq];
      if (seq > 0 && !CodeLess(fragments[seq - 1].root_code(), f.root_code())) {
        return Violation("view " + std::to_string(view_id) +
                         ": fragments out of Dewey order at index " +
                         std::to_string(seq));
      }
      const Status layout = ValidateFlatFragment(f);
      if (!layout.ok()) {
        return Violation("view " + std::to_string(view_id) + " fragment " +
                         std::to_string(seq) + ": " + layout.message());
      }
      XVR_RETURN_IF_ERROR(ValidateFragmentTree(view_id, seq, f, fst));
      if (!answer_path.empty()) {
        std::vector<LabelId> decoded;
        if (!fst.Decode(f.root_code(), &decoded)) {
          return Violation("view " + std::to_string(view_id) + " fragment " +
                           std::to_string(seq) +
                           ": root code is not decodable");
        }
        if (!PathMatchesLabels(answer_path, decoded)) {
          return Violation("view " + std::to_string(view_id) + " fragment " +
                           std::to_string(seq) + " root " +
                           f.AbsoluteCode(0).ToString() +
                           " does not lie on the view's answer path");
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidateAnswerCodes(const std::vector<DeweyCode>& codes) {
  for (size_t i = 1; i < codes.size(); ++i) {
    if (!(codes[i - 1] < codes[i])) {
      return Violation("answer codes not strictly increasing at index " +
                       std::to_string(i) + ": " + codes[i - 1].ToString() +
                       " !< " + codes[i].ToString());
    }
  }
  return Status::Ok();
}

Status ValidateCatalogSnapshot(const CatalogSnapshot& catalog) {
  for (const int32_t id : catalog.quarantined_views) {  // lint:ordered-ok
    if (!catalog.views.Contains(id)) {
      return Violation("quarantined view " + std::to_string(id) +
                       " is not in the views map");
    }
  }
  // The VFILTER registry must index exactly the serving views.
  std::unordered_set<int32_t> indexed;
  for (const auto& [id, num_paths] : catalog.vfilter.ViewPathCounts()) {
    (void)num_paths;
    if (!catalog.views.Contains(id)) {
      return Violation("VFILTER indexes unknown view " + std::to_string(id));
    }
    if (catalog.quarantined_views.count(id) > 0) {
      return Violation("VFILTER indexes quarantined view " +
                       std::to_string(id));
    }
    indexed.insert(id);
  }
  for (const auto& [id, pattern] : catalog.views) {
    (void)pattern;
    if (id >= catalog.next_view_id) {
      return Violation("view id " + std::to_string(id) +
                       " >= next_view_id " +
                       std::to_string(catalog.next_view_id));
    }
    if (catalog.quarantined_views.count(id) > 0) {
      continue;
    }
    if (indexed.count(id) == 0) {
      return Violation("serving view " + std::to_string(id) +
                       " is missing from VFILTER");
    }
    if (!catalog.fragments.HasView(id)) {
      return Violation("serving view " + std::to_string(id) +
                       " has no fragments");
    }
  }
  // Fragments belong to serving views.
  for (const int32_t id : catalog.fragments.view_ids()) {
    if (!catalog.views.Contains(id)) {
      return Violation("fragment store holds unknown view " +
                       std::to_string(id));
    }
    if (catalog.quarantined_views.count(id) > 0) {
      return Violation("fragment store holds quarantined view " +
                       std::to_string(id));
    }
  }
  return Status::Ok();
}

Status ValidateCatalogWalRecords(
    const std::vector<CatalogWalRecord>& records) {
  uint64_t prev_seq = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const CatalogWalRecord& record = records[i];
    if (i > 0 && record.seq <= prev_seq) {
      return Violation("WAL record " + std::to_string(i) +
                       ": sequence not strictly increasing (" +
                       std::to_string(prev_seq) +
                       " -> " + std::to_string(record.seq) + ")");
    }
    prev_seq = record.seq;
    switch (record.op) {
      case CatalogWalOp::kAddView:
        if (record.xpath.empty()) {
          return Violation("WAL record " + std::to_string(i) +
                           ": add without a pattern");
        }
        break;
      case CatalogWalOp::kRemoveView:
        if (!record.xpath.empty()) {
          return Violation("WAL record " + std::to_string(i) +
                           ": remove carries a pattern");
        }
        break;
      default:
        return Violation("WAL record " + std::to_string(i) + ": unknown op " +
                         std::to_string(static_cast<int>(record.op)));
    }
    if (record.view_id < 0) {
      return Violation("WAL record " + std::to_string(i) +
                       ": negative view id");
    }
  }
  return Status::Ok();
}

namespace {

// The T at `offset` of a block whose size the caller has checked.
template <typename T>
T BlockAt(std::span<const std::byte> block, size_t offset) {
  T value;
  std::memcpy(&value, block.data() + offset, sizeof(T));
  return value;
}

Status CheckPoolString(const PoolString& s, uint32_t pool_bytes,
                       const std::string& what) {
  if (uint64_t{s.offset} + s.length > pool_bytes) {
    return Violation("flat fragment " + what + ": pool bytes [" +
                     std::to_string(s.offset) + ", " +
                     std::to_string(uint64_t{s.offset} + s.length) +
                     ") outside the pool of " + std::to_string(pool_bytes));
  }
  return Status::Ok();
}

}  // namespace

Status ValidateFlatFragmentLayout(std::span<const std::byte> block) {
  if (block.size() < sizeof(FragmentBlockHeader)) {
    return Violation("flat fragment: block of " +
                     std::to_string(block.size()) + " bytes has no header");
  }
  const auto header = BlockAt<FragmentBlockHeader>(block, 0);
  const FragmentBlockLayout layout = FragmentBlockLayout::Of(header);
  if (layout.end != block.size()) {
    return Violation("flat fragment: header counts size a block of " +
                     std::to_string(layout.end) + " bytes, not " +
                     std::to_string(block.size()));
  }
  const size_t n = header.num_nodes;
  if (n == 0) {
    return Violation("flat fragment: no nodes");
  }
  const auto node = [&block, &layout](size_t i) {
    return BlockAt<FragmentNode>(block,
                                 layout.nodes + i * sizeof(FragmentNode));
  };
  if (node(0).parent != -1) {
    return Violation("flat fragment: root parent is " +
                     std::to_string(node(0).parent) + ", want -1");
  }
  for (size_t i = 1; i < n; ++i) {
    const int32_t parent = node(i).parent;
    if (parent < 0 || static_cast<size_t>(parent) >= i) {
      return Violation("flat fragment node " + std::to_string(i) +
                       ": parent " + std::to_string(parent) +
                       " does not precede it (not preorder)");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t end = node(i).subtree_end;
    if (end <= i || end > n || (i == 0 && end != n)) {
      return Violation("flat fragment node " + std::to_string(i) +
                       ": subtree_end " + std::to_string(end) +
                       " outside (" + std::to_string(i) + ", " +
                       std::to_string(n) + "]" +
                       (i == 0 ? " or short of the last node" : ""));
    }
  }
  // One walk enforces the rest: in preorder, node i's children tile
  // (i, subtree_end(i)) — the first child is i+1 and each next one starts
  // where the previous child's subtree ends — each names i as its parent,
  // and their Dewey components ascend (document order).
  for (size_t i = 0; i < n; ++i) {
    const uint32_t end = node(i).subtree_end;
    size_t c = i + 1;
    for (uint32_t prev_component = 0; c < end;) {
      const FragmentNode child = node(c);
      if (child.parent != static_cast<int32_t>(i)) {
        return Violation("flat fragment node " + std::to_string(c) +
                         ": parent link " + std::to_string(child.parent) +
                         " disagrees with the subtree walk under node " +
                         std::to_string(i));
      }
      if (c > i + 1 && child.dewey_component <= prev_component) {
        return Violation("flat fragment node " + std::to_string(c) +
                         ": Dewey component " +
                         std::to_string(child.dewey_component) +
                         " not above its previous sibling's " +
                         std::to_string(prev_component) +
                         " (children out of document order)");
      }
      prev_component = child.dewey_component;
      c = child.subtree_end;
    }
    if (c != end) {
      return Violation("flat fragment node " + std::to_string(i) +
                       ": children cover up to " + std::to_string(c) +
                       " but subtree_end is " + std::to_string(end));
    }
  }
  // Text and attribute tables: one entry per node, ids strictly ascending
  // and below the node count, every string inside the pool.
  int64_t prev_id = -1;
  for (uint32_t t = 0; t < header.num_texts; ++t) {
    const auto text = BlockAt<FragmentText>(
        block, layout.texts + t * sizeof(FragmentText));
    if (text.node <= prev_id || static_cast<size_t>(text.node) >= n) {
      return Violation("flat fragment text " + std::to_string(t) +
                       ": node " + std::to_string(text.node) + " after " +
                       std::to_string(prev_id) + " or not below " +
                       std::to_string(n));
    }
    prev_id = text.node;
    XVR_RETURN_IF_ERROR(CheckPoolString(text.text, header.pool_bytes,
                                        "text " + std::to_string(t)));
  }
  prev_id = -1;
  uint32_t next_attr = 0;
  for (uint32_t l = 0; l < header.num_attr_lists; ++l) {
    const auto list = BlockAt<FragmentAttrList>(
        block, layout.attr_lists + l * sizeof(FragmentAttrList));
    if (list.node <= prev_id || static_cast<size_t>(list.node) >= n) {
      return Violation("flat fragment attribute list " + std::to_string(l) +
                       ": node " + std::to_string(list.node) + " after " +
                       std::to_string(prev_id) + " or not below " +
                       std::to_string(n));
    }
    prev_id = list.node;
    if (list.begin != next_attr || list.end < list.begin ||
        list.end > header.num_attrs) {
      return Violation("flat fragment attribute list " + std::to_string(l) +
                       ": range [" + std::to_string(list.begin) + ", " +
                       std::to_string(list.end) + ") does not follow " +
                       std::to_string(next_attr) + " within " +
                       std::to_string(header.num_attrs) + " attributes");
    }
    next_attr = list.end;
  }
  if (next_attr != header.num_attrs) {
    return Violation("flat fragment: attribute lists cover " +
                     std::to_string(next_attr) + " of " +
                     std::to_string(header.num_attrs) + " attributes");
  }
  for (uint32_t a = 0; a < header.num_attrs; ++a) {
    const auto attr = BlockAt<FragmentAttr>(
        block, layout.attrs + a * sizeof(FragmentAttr));
    const std::string what = "attribute " + std::to_string(a);
    XVR_RETURN_IF_ERROR(
        CheckPoolString(attr.name, header.pool_bytes, what + " name"));
    XVR_RETURN_IF_ERROR(
        CheckPoolString(attr.value, header.pool_bytes, what + " value"));
  }
  return Status::Ok();
}

Status ValidateFlatFragment(const Fragment& fragment) {
  XVR_RETURN_IF_ERROR(ValidateFlatFragmentLayout(fragment.block()));
  const std::span<const uint32_t> code = fragment.root_code();
  if (code.empty()) {
    return Violation("flat fragment: empty root code");
  }
  if (code.back() != fragment.node(0).dewey_component) {
    return Violation("flat fragment: root dewey_component " +
                     std::to_string(fragment.node(0).dewey_component) +
                     " != last root-code component " +
                     std::to_string(code.back()));
  }
  return Status::Ok();
}

Status ValidatePlanCacheStats(const PlanCache::Stats& stats) {
  if (stats.hits + stats.misses != stats.lookups) {
    return Violation("plan cache stats: hits (" + std::to_string(stats.hits) +
                     ") + misses (" + std::to_string(stats.misses) +
                     ") != lookups (" + std::to_string(stats.lookups) + ")");
  }
  if (stats.stale_drops > stats.misses) {
    return Violation("plan cache stats: stale_drops (" +
                     std::to_string(stats.stale_drops) + ") > misses (" +
                     std::to_string(stats.misses) + ")");
  }
  if (stats.dep_invalidations + stats.fingerprint_invalidations +
          stats.survived_publications !=
      stats.publish_entries_swept) {
    return Violation(
        "plan cache stats: dep_invalidations (" +
        std::to_string(stats.dep_invalidations) +
        ") + fingerprint_invalidations (" +
        std::to_string(stats.fingerprint_invalidations) +
        ") + survived_publications (" +
        std::to_string(stats.survived_publications) +
        ") != publish_entries_swept (" +
        std::to_string(stats.publish_entries_swept) + ")");
  }
  return Status::Ok();
}

Status ValidatePlanCacheDependencies(const PlanCache* cache,
                                     const CatalogSnapshot& catalog) {
  if (cache == nullptr) {
    return Status::Ok();
  }
  NfaReadScratch scratch;
  for (const std::shared_ptr<const QueryPlan>& plan :
       cache->SampleEntries(8)) {
    // Only VFILTER-backed plans record the full candidate set: base plans
    // have no catalog dependencies, tombstones may legitimately survive
    // removals their stale candidate lists mention, MN plans record only
    // the selected cover, and degraded plans are barred from the cache.
    if (plan == nullptr || !plan->uses_views || plan->not_answerable ||
        !plan->deps.filtered || plan->plan_stats.degraded_selection) {
      continue;
    }
    const FilterResult fresh = catalog.vfilter.Filter(plan->query, &scratch);
    if (fresh.candidates != plan->deps.views) {
      return Violation(
          "plan cache under-invalidation: a surviving plan's recorded "
          "candidate set (" +
          std::to_string(plan->deps.views.size()) +
          " views) no longer matches a fresh VFILTER pass (" +
          std::to_string(fresh.candidates.size()) +
          " views) against catalog version " +
          std::to_string(catalog.version));
    }
  }
  return Status::Ok();
}

}  // namespace xvr
