// Tests for the src/analysis invariant validators: every structure the
// generators produce must validate green, and hand-corrupted structures
// (out-of-order Dewey codes, dangling NFA transitions, unnormalized
// patterns, misplaced fragments) must be rejected with a non-OK Status.

#include "analysis/validate.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "pattern/normalize.h"
#include "pattern/xpath_parser.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

XmlTree SmallXmark() {
  XmarkOptions options;
  options.scale = 0.2;
  return GenerateXmark(options);
}

// --- acceptance: generator outputs validate green --------------------------

TEST(ValidateDocumentTest, AcceptsXmarkAndRandomDocs) {
  XmlTree xmark = SmallXmark();
  EXPECT_TRUE(ValidateDocument(xmark).ok());

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDocOptions options;
    options.seed = seed;
    options.num_nodes = 300;
    XmlTree doc = GenerateRandomDoc(options);
    const Status status = ValidateDocument(doc);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status;
  }
}

TEST(ValidateDocumentTest, AcceptsParsedDocument) {
  auto doc = ParseXml("<b><t/><s><t/><f><i/></f><p/></s><s><t/><p/></s></b>");
  ASSERT_TRUE(doc.ok());
  doc->AssignDeweyCodes();
  EXPECT_TRUE(ValidateDocument(*doc).ok());
}

TEST(ValidatePatternTest, AcceptsGeneratedQueries) {
  XmlTree doc = GenerateRandomDoc({});
  QueryGenerator gen(doc, {});
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const TreePattern query = gen.Generate(&rng);
    const Status status = ValidateTreePattern(query);
    EXPECT_TRUE(status.ok()) << status;
    // N(P) of every decomposed root-to-leaf path must pass the §III-C
    // normal-form check (what VFILTER indexes).
    for (const PathPattern& path : Decompose(query).paths) {
      const Status normalized =
          ValidatePathPattern(NormalizePath(path), /*require_normalized=*/true);
      EXPECT_TRUE(normalized.ok()) << normalized;
    }
  }
}

TEST(ValidatePatternTest, AcceptsNormalizedDecomposition) {
  LabelDict dict;
  auto query = ParseXPath("//a[.//*/b]/c", &dict);
  ASSERT_TRUE(query.ok());
  const Decomposition d = Decompose(*query);
  for (const PathPattern& path : d.paths) {
    EXPECT_TRUE(ValidatePathPattern(path).ok());
    const PathPattern normalized = NormalizePath(path);
    EXPECT_TRUE(
        ValidatePathPattern(normalized, /*require_normalized=*/true).ok());
  }
}

TEST(ValidateVFilterTest, AcceptsGeneratedViewSets) {
  XmlTree doc = GenerateRandomDoc({});
  QueryGenerator gen(doc, {});
  Rng rng(11);
  VFilter filter;
  for (int i = 0; i < 40; ++i) {
    filter.AddView(i, gen.Generate(&rng));
  }
  EXPECT_TRUE(ValidateVFilter(filter).ok());
  // Logical deletion keeps the closure intact.
  filter.RemoveView(3);
  filter.RemoveView(17);
  const Status status = ValidateVFilter(filter);
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ValidateFragmentStoreTest, AcceptsEngineMaterializedViews) {
  Engine engine(SmallXmark());
  const auto add = [&](const std::string& xpath) {
    auto pattern = engine.Parse(xpath);
    ASSERT_TRUE(pattern.ok()) << pattern.status();
    auto id = engine.AddView(std::move(*pattern));
    ASSERT_TRUE(id.ok()) << id.status();
  };
  add("//person[profile/interest]/name");
  add("//item[location]/name");
  add("//closed_auction/price");
  const ViewLookup lookup = [&](int32_t id) { return engine.view(id); };
  const Status status =
      ValidateFragmentStore(engine.fragments(), *engine.doc().fst(), lookup);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(ValidateVFilter(engine.vfilter()).ok());
  EXPECT_TRUE(ValidateDocument(engine.doc()).ok());
}

// --- rejection: hand-corrupted inputs --------------------------------------

TEST(ValidateDocumentTest, RejectsOutOfOrderDeweyCodes) {
  auto doc = ParseXml("<b><t/><a/><s><p/></s></b>");
  ASSERT_TRUE(doc.ok());
  doc->AssignDeweyCodes();
  ASSERT_TRUE(ValidateDocument(*doc).ok());
  // Swap the codes of the first two siblings; document order is broken and
  // the codes no longer decode to the nodes' labels.
  const std::vector<NodeId> children = doc->Children(doc->root());
  ASSERT_GE(children.size(), 2u);
  auto& first = const_cast<DeweyCode&>(doc->dewey(children[0]));
  auto& second = const_cast<DeweyCode&>(doc->dewey(children[1]));
  std::swap(first, second);
  EXPECT_FALSE(ValidateDocument(*doc).ok());
}

TEST(ValidateDocumentTest, RejectsUndecodableCode) {
  auto doc = ParseXml("<b><t/><s><p/></s></b>");
  ASSERT_TRUE(doc.ok());
  doc->AssignDeweyCodes();
  const std::vector<NodeId> children = doc->Children(doc->root());
  ASSERT_FALSE(children.empty());
  // A component far beyond the schema's child-count residues cannot be the
  // output of the extended-Dewey assignment for this label.
  auto& code = const_cast<DeweyCode&>(doc->dewey(children[0]));
  code = DeweyCode({0, 9999});
  EXPECT_FALSE(ValidateDocument(*doc).ok());
}

TEST(ValidatePatternTest, RejectsCorruptedStructure) {
  LabelDict dict;
  auto query = ParseXPath("/a/b[c]/d", &dict);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(ValidateTreePattern(*query).ok());

  TreePattern broken_label = *query;
  broken_label.mutable_node(1).label = -7;
  EXPECT_FALSE(ValidateTreePattern(broken_label).ok());

  TreePattern broken_parent = *query;
  broken_parent.mutable_node(2).parent = 0;  // parent link no longer mutual
  EXPECT_FALSE(ValidateTreePattern(broken_parent).ok());

  TreePattern cycle = *query;
  cycle.mutable_node(0).children.push_back(0);  // root becomes its own child
  EXPECT_FALSE(ValidateTreePattern(cycle).ok());

  TreePattern empty_pred = *query;
  ValuePredicate pred;
  pred.attribute = "";
  empty_pred.mutable_node(1).value_pred = pred;
  EXPECT_FALSE(ValidateTreePattern(empty_pred).ok());
}

TEST(ValidatePatternTest, RejectsUnnormalizedPath) {
  LabelDict dict;
  const LabelId a = dict.Intern("a");
  const LabelId b = dict.Intern("b");
  // a / * // * / b: the descendant edge sits on the SECOND wildcard of the
  // run; §III-C normal form requires it on the first.
  PathPattern path;
  path.Append(Axis::kChild, a);
  path.Append(Axis::kChild, kWildcardLabel);
  path.Append(Axis::kDescendant, kWildcardLabel);
  path.Append(Axis::kChild, b);
  ASSERT_FALSE(IsNormalizedPath(path));
  EXPECT_TRUE(ValidatePathPattern(path).ok());  // structurally fine
  EXPECT_FALSE(
      ValidatePathPattern(path, /*require_normalized=*/true).ok());
  EXPECT_TRUE(
      ValidatePathPattern(NormalizePath(path), /*require_normalized=*/true)
          .ok());
}

TEST(ValidateVFilterTest, RejectsDanglingTransition) {
  LabelDict dict;
  auto view = ParseXPath("//a/b", &dict);
  ASSERT_TRUE(view.ok());
  VFilter filter;
  filter.AddView(0, *view);
  ASSERT_TRUE(ValidateVFilter(filter).ok());
  // Point a '*' transition at a state that does not exist.
  filter.mutable_nfa().mutable_state(0).star_trans =
      static_cast<StateId>(filter.nfa().num_states() + 5);
  EXPECT_FALSE(ValidateVFilter(filter).ok());
}

TEST(ValidateVFilterTest, RejectsAcceptBookkeepingDrift) {
  LabelDict dict;
  auto view = ParseXPath("//a/b", &dict);
  ASSERT_TRUE(view.ok());

  VFilter lost_accept;
  lost_accept.AddView(0, *view);
  for (StateId s = 0; s < static_cast<StateId>(lost_accept.num_states());
       ++s) {
    PathNfa::State& state = lost_accept.mutable_nfa().mutable_state(s);
    state.accepts.clear();  // view 0 still registered, no accepting path
    state.is_accepting = false;
  }
  EXPECT_FALSE(ValidateVFilter(lost_accept).ok());

  VFilter flag_drift;
  flag_drift.AddView(0, *view);
  for (StateId s = 0; s < static_cast<StateId>(flag_drift.num_states());
       ++s) {
    PathNfa::State& state = flag_drift.mutable_nfa().mutable_state(s);
    if (state.is_accepting) {
      state.is_accepting = false;  // entries remain: flag disagrees
    }
  }
  EXPECT_FALSE(ValidateVFilter(flag_drift).ok());
}

TEST(ValidateVFilterTest, RejectsSlotDrift) {
  LabelDict dict;
  VFilter filter;
  for (const char* xpath : {"//a/b", "/a[c]/d", "//d"}) {
    auto view = ParseXPath(xpath, &dict);
    ASSERT_TRUE(view.ok());
    filter.AddView(static_cast<int32_t>(filter.num_views()), *view);
  }
  filter.RemoveView(1);
  auto readded = ParseXPath("/a/c", &dict);
  ASSERT_TRUE(readded.ok());
  filter.AddView(7, *readded);  // takes view 1's freed slot
  EXPECT_EQ(filter.SlotOf(7), 1);
  ASSERT_TRUE(ValidateVFilter(filter).ok());
  // An accept entry of view 7 carrying view 0's slot.
  for (StateId s = 0; s < static_cast<StateId>(filter.num_states()); ++s) {
    for (AcceptEntry& e : filter.mutable_nfa().mutable_state(s).accepts) {
      if (e.view_id == 7) {
        e.slot = filter.SlotOf(0);
      }
    }
  }
  EXPECT_FALSE(ValidateVFilter(filter).ok());
}

TEST(ValidateFragmentStoreTest, RejectsOutOfOrderAndForeignFragments) {
  Engine engine(SmallXmark());
  auto pattern = engine.Parse("//person[profile/interest]/name");
  ASSERT_TRUE(pattern.ok());
  auto id = engine.AddView(std::move(*pattern));
  ASSERT_TRUE(id.ok());
  const ViewLookup lookup = [&](int32_t view_id) {
    return engine.view(view_id);
  };

  const std::vector<Fragment>* fragments = engine.fragments().GetView(*id);
  ASSERT_NE(fragments, nullptr);
  ASSERT_GE(fragments->size(), 2u);

  {
    // Swap two fragments: no longer sorted by root code.
    auto& mutable_fragments = const_cast<std::vector<Fragment>&>(*fragments);
    std::swap(mutable_fragments.front(), mutable_fragments.back());
    EXPECT_FALSE(
        ValidateFragmentStore(engine.fragments(), *engine.doc().fst(), lookup)
            .ok());
    std::swap(mutable_fragments.front(), mutable_fragments.back());
    ASSERT_TRUE(
        ValidateFragmentStore(engine.fragments(), *engine.doc().fst(), lookup)
            .ok());
  }
  {
    // Teleport one fragment root to an undecodable position: its code can
    // no longer be the image of the view's answer path.
    auto& root_code =
        const_cast<DeweyCode&>(fragments->front().root_code());
    const DeweyCode saved = root_code;
    root_code.Append(9999);
    EXPECT_FALSE(
        ValidateFragmentStore(engine.fragments(), *engine.doc().fst(), lookup)
            .ok());
    root_code = saved;
  }
}

// Every serving view is fully materialized; quarantine is the one way a
// view may lack fragments.
TEST(ValidateCatalogSnapshotTest, RejectsServingViewWithoutFragments) {
  auto doc = ParseXml("<r><s><p/></s><s><p/><q/></s></r>");
  ASSERT_TRUE(doc.ok());
  Engine engine(std::move(doc).value());
  auto pattern = engine.Parse("/r/s/p");
  ASSERT_TRUE(pattern.ok());
  auto id = engine.AddView(std::move(*pattern));
  ASSERT_TRUE(id.ok()) << id.status();
  CatalogSnapshot snapshot = *engine.Catalog();
  ASSERT_TRUE(ValidateCatalogSnapshot(snapshot).ok());
  snapshot.fragments.RemoveView(*id);
  EXPECT_FALSE(ValidateCatalogSnapshot(snapshot).ok());
  snapshot.vfilter.RemoveView(*id);
  snapshot.quarantined_views.insert(*id);
  EXPECT_TRUE(ValidateCatalogSnapshot(snapshot).ok());
}

TEST(ValidateAnswerCodesTest, RejectsDuplicatesAndDisorder) {
  EXPECT_TRUE(ValidateAnswerCodes({}).ok());
  const DeweyCode a({0, 1});
  const DeweyCode b({0, 2});
  EXPECT_TRUE(ValidateAnswerCodes({a, b}).ok());
  EXPECT_FALSE(ValidateAnswerCodes({b, a}).ok());
  EXPECT_FALSE(ValidateAnswerCodes({a, a}).ok());
}

// --- flat fragment layout ---------------------------------------------------

// A hand-built layout mirroring <b><s><t/></s><p/></b>: 4 nodes in preorder,
// CSR child lists back to back. Labels are arbitrary (layout checks don't
// consult the dictionary).
struct FragmentLayoutFixture {
  std::vector<FragmentNode> nodes;
  std::vector<int32_t> child_index;

  FragmentLayoutFixture() {
    nodes.resize(4);
    // 0: root <b>, children 1 (<s>) and 3 (<p>).
    nodes[0].label = 1;
    nodes[0].parent = -1;
    nodes[0].children_begin = 0;
    nodes[0].children_end = 2;
    nodes[0].subtree_end = 4;
    // 1: <s>, child 2 (<t>).
    nodes[1].label = 2;
    nodes[1].parent = 0;
    nodes[1].children_begin = 2;
    nodes[1].children_end = 3;
    nodes[1].subtree_end = 3;
    // 2: <t>, leaf.
    nodes[2].label = 3;
    nodes[2].parent = 1;
    nodes[2].children_begin = 3;
    nodes[2].children_end = 3;
    nodes[2].subtree_end = 3;
    // 3: <p>, leaf.
    nodes[3].label = 4;
    nodes[3].parent = 0;
    nodes[3].children_begin = 3;
    nodes[3].children_end = 3;
    nodes[3].subtree_end = 4;
    child_index = {1, 3, 2};
  }

  Status Validate() const {
    return ValidateFlatFragmentLayout(nodes, child_index);
  }
};

TEST(ValidateFlatFragmentTest, AcceptsFromTreeFragments) {
  auto doc = ParseXml("<b><t/><s><t/><f><i/></f><p/></s><s><t/><p/></s></b>");
  ASSERT_TRUE(doc.ok());
  doc->AssignDeweyCodes();
  size_t single_node = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(doc->size()); ++n) {
    const Fragment fragment = Fragment::FromTree(*doc, n);
    const Status status = ValidateFlatFragment(fragment);
    EXPECT_TRUE(status.ok()) << status;
    // A leaf's fragment is the single-node layout: no child index at all.
    if (doc->Children(n).empty()) {
      EXPECT_EQ(fragment.size(), 1u);
      EXPECT_TRUE(fragment.raw_child_index().empty());
      ++single_node;
    }
  }
  EXPECT_GT(single_node, 0u);
}

TEST(ValidateFlatFragmentTest, AcceptsEngineMaterializedFragments) {
  Engine engine(SmallXmark());
  for (const char* xpath :
       {"//person/name", "//item[location]", "/site/regions"}) {
    auto pattern = engine.Parse(xpath);
    ASSERT_TRUE(pattern.ok());
    ASSERT_TRUE(engine.AddView(*pattern).ok());
  }
  const FragmentStore& store = engine.fragments();
  int checked = 0;
  for (int32_t view_id : store.view_ids()) {
    const std::vector<Fragment>* fragments = store.GetView(view_id);
    ASSERT_NE(fragments, nullptr);
    for (const Fragment& fragment : *fragments) {
      const Status status = ValidateFlatFragment(fragment);
      EXPECT_TRUE(status.ok()) << status;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ValidateFlatFragmentTest, AcceptsHandBuiltFixture) {
  const FragmentLayoutFixture f;
  const Status status = f.Validate();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ValidateFlatFragmentTest, RejectsEmptyAndBadRoot) {
  EXPECT_FALSE(ValidateFlatFragmentLayout({}, {}).ok());

  FragmentLayoutFixture f;
  f.nodes[0].parent = 0;  // root must have parent -1
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsChildBeforeParent) {
  FragmentLayoutFixture f;
  // Claim node 2's parent is node 3 — a parent that does not precede it.
  f.nodes[2].parent = 3;
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsSubtreeEndOutOfBounds) {
  {
    FragmentLayoutFixture f;
    f.nodes[0].subtree_end = 5;  // past the node array
    EXPECT_FALSE(f.Validate().ok());
  }
  {
    FragmentLayoutFixture f;
    f.nodes[1].subtree_end = 1;  // subtree must contain the node itself
    EXPECT_FALSE(f.Validate().ok());
  }
  {
    // Root subtree_end that excludes the last node: the CSR walk covers
    // nodes 1..4 but subtree_end claims 3.
    FragmentLayoutFixture f;
    f.nodes[0].subtree_end = 3;
    EXPECT_FALSE(f.Validate().ok());
  }
}

TEST(ValidateFlatFragmentTest, RejectsCsrRangeOutOfBounds) {
  FragmentLayoutFixture f;
  f.nodes[0].children_end = 9;  // past child_index
  EXPECT_FALSE(f.Validate().ok());

  FragmentLayoutFixture g;
  g.nodes[1].children_begin = 3;
  g.nodes[1].children_end = 2;  // begin > end
  EXPECT_FALSE(g.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsParentLinkDisagreement) {
  FragmentLayoutFixture f;
  // CSR lists node 2 under node 1, but rewire 2's parent link to the root
  // while keeping it inside node 1's subtree range.
  f.nodes[2].parent = 0;
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsChildrenOutOfOrder) {
  FragmentLayoutFixture f;
  // Swap the root's CSR child list: {3, 1} instead of {1, 3}. Both children
  // exist with correct parent links — only document order is violated.
  f.child_index[0] = 3;
  f.child_index[1] = 1;
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsDroppedChildSlot) {
  FragmentLayoutFixture f;
  // Shrink the root's child list to just <s>: node 3 becomes unreachable,
  // so the children no longer cover the root's subtree.
  f.nodes[0].children_end = 1;
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ValidateFlatFragmentTest, RejectsRootCodeMismatch) {
  auto doc = ParseXml("<b><s><t/></s></b>");
  ASSERT_TRUE(doc.ok());
  doc->AssignDeweyCodes();
  const Fragment fragment = Fragment::FromTree(*doc, 1);
  ASSERT_TRUE(ValidateFlatFragment(fragment).ok());
  // Deserialize canonicalizes topology, so the layout checks can't be
  // tripped through serde — but the root node's dewey_component is carried
  // verbatim. Patch it in the wire image (v2 layout: magic, root-code
  // depth + components, node count, then 12-byte node records) so it no
  // longer matches the root code's last component.
  std::string bytes = fragment.Serialize();
  const size_t depth = fragment.root_code().depth();
  const size_t root_dewey_offset = 4 + 4 + depth * 4 + 4 + 8;
  ASSERT_LT(root_dewey_offset, bytes.size());
  bytes[root_dewey_offset] = static_cast<char>(bytes[root_dewey_offset] + 1);
  auto corrupted = Fragment::Deserialize(bytes);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_TRUE(ValidateFlatFragmentLayout(corrupted->raw_nodes(),
                                         corrupted->raw_child_index())
                  .ok());
  EXPECT_FALSE(ValidateFlatFragment(*corrupted).ok());
}

}  // namespace
}  // namespace xvr
