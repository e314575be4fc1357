#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/xmark.h"
#include "xml/dewey.h"
#include "xml/fst.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

TEST(DeweyCode, BasicOps) {
  DeweyCode c({0, 8, 6});
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.ToString(), "0.8.6");
  EXPECT_EQ(c.Parent().ToString(), "0.8");
  EXPECT_EQ(c.Prefix(1).ToString(), "0");
  EXPECT_EQ(c.Prefix(99), c);
  EXPECT_TRUE(c.Parent().IsPrefixOf(c));
  EXPECT_TRUE(c.IsPrefixOf(c));
  EXPECT_FALSE(c.IsPrefixOf(c.Parent()));
  EXPECT_EQ(
      CommonPrefixLength(c.components(), DeweyCode({0, 8, 7}).components()),
      2u);
  EXPECT_EQ(CommonPrefixLength(c.components(), DeweyCode({1}).components()),
            0u);
}

TEST(DeweyCode, Ordering) {
  // Document order: prefix before extension, siblings by component.
  EXPECT_LT(DeweyCode({0}), DeweyCode({0, 1}));
  EXPECT_LT(DeweyCode({0, 1}), DeweyCode({0, 2}));
  EXPECT_LT(DeweyCode({0, 1, 5}), DeweyCode({0, 2}));
}

TEST(DeweyCode, AppendToWritesThePaperNotation) {
  std::string out = "x";
  DeweyCode({0}).AppendTo(&out);
  EXPECT_EQ(out, "x0");
  out.clear();
  DeweyCode({4294967295u}).AppendTo(&out);
  EXPECT_EQ(out, "4294967295");
  out.clear();
  DeweyCode({7, 0, 4294967295u, 12}).AppendTo(&out);
  EXPECT_EQ(out, "7.0.4294967295.12");
  out.clear();
  DeweyCode().AppendTo(&out);
  EXPECT_EQ(out, "");
  EXPECT_EQ(DeweyCode({0, 8, 6}).ToString(), "0.8.6");
}

TEST(DeweyCode, FromStringRoundTrip) {
  DeweyCode c;
  ASSERT_TRUE(DeweyCode::FromString("3.14.159", &c));
  EXPECT_EQ(c.ToString(), "3.14.159");
  ASSERT_TRUE(DeweyCode::FromString("", &c));
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(DeweyCode::FromString("1..2", &c));
  EXPECT_FALSE(DeweyCode::FromString("a.b", &c));
}

TEST(DeweyCode, HashConsistent) {
  DeweyCodeHash h;
  EXPECT_EQ(h(DeweyCode({1, 2})), h(DeweyCode({1, 2})));
  EXPECT_NE(h(DeweyCode({1, 2})), h(DeweyCode({2, 1})));
}

// The paper's running example (Figure 2/3, Example 2.1): book tree with
// labels b, t, a, s, p, f, i.
Result<XmlTree> BookTree() {
  return ParseXml(
      "<b>"
      "  <t/><a/><a/>"
      "  <s><t/><f><i/></f><p/></s>"
      "  <s><t/><p/>"
      "    <s><t/><p/><f><i/></f></s>"
      "  </s>"
      "</b>");
}

TEST(Fst, DecodesEveryNodePath) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  const Fst* fst = tree->fst();
  ASSERT_NE(fst, nullptr);
  // For every node, the decoded label path must equal the actual path.
  for (size_t i = 0; i < tree->size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    std::vector<LabelId> decoded;
    ASSERT_TRUE(fst->Decode(tree->dewey(n).components(), &decoded))
        << tree->dewey(n).ToString();
    std::vector<LabelId> actual;
    for (NodeId cur = n; cur != kNullNode; cur = tree->node(cur).parent) {
      actual.push_back(tree->label(cur));
    }
    std::reverse(actual.begin(), actual.end());
    EXPECT_EQ(decoded, actual) << "node " << n;
  }
}

TEST(Fst, PaperExampleResidues) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  const Fst* fst = tree->fst();
  // b's distinct children in first-appearance order: t, a, s.
  const LabelId b = tree->labels().Find("b");
  const LabelId s = tree->labels().Find("s");
  ASSERT_EQ(fst->ChildCount(b), 3u);
  EXPECT_EQ(fst->ChildIndex(b, tree->labels().Find("t")), 0);
  EXPECT_EQ(fst->ChildIndex(b, tree->labels().Find("a")), 1);
  EXPECT_EQ(fst->ChildIndex(b, s), 2);
  // s's children: t, f, p, s (first appearance order).
  ASSERT_EQ(fst->ChildCount(s), 4u);
  // A label interned after the FST was built has no children in it, and is
  // no one's child.
  const LabelId late = tree->labels().Intern("late");
  EXPECT_EQ(fst->ChildCount(late), 0u);
  EXPECT_EQ(fst->ChildIndex(late, s), -1);
  EXPECT_EQ(fst->ChildIndex(b, late), -1);
  // Like Example 2.1, the code of a nested s decodes to b/s/s.
  for (size_t i = 0; i < tree->size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    if (tree->label(n) == s && tree->Depth(n) == 2) {
      std::vector<LabelId> path;
      ASSERT_TRUE(fst->Decode(tree->dewey(n).components(), &path));
      ASSERT_EQ(path.size(), 3u);
      EXPECT_EQ(path[0], b);
      EXPECT_EQ(path[1], s);
      EXPECT_EQ(path[2], s);
    }
  }
}

TEST(Fst, RejectsUnderivableCode) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  std::vector<LabelId> path;
  // A leaf label has no children in the schema; extending beyond it fails.
  // Find an i node (leaf) and extend its code.
  for (size_t n = 0; n < tree->size(); ++n) {
    if (tree->label_name(static_cast<NodeId>(n)) == "i") {
      auto code = tree->dewey(static_cast<NodeId>(n)).components();
      code.push_back(0);
      EXPECT_FALSE(tree->fst()->Decode(code, &path));
      return;
    }
  }
  FAIL() << "no i node found";
}

TEST(Fst, KeptPrefixDecodeEqualsFullDecodeInDocumentOrder) {
  XmarkOptions options;
  options.scale = 0.1;
  options.seed = 11;
  XmlTree tree = GenerateXmark(options);
  ASSERT_TRUE(tree.has_dewey());
  std::vector<DeweyCode> codes;
  for (size_t i = 0; i < tree.size(); ++i) {
    codes.push_back(tree.dewey(static_cast<NodeId>(i)));
  }
  std::sort(codes.begin(), codes.end());
  ASSERT_GT(codes.size(), 500u);
  // Walk every node in document order, decoding each code only past its
  // common prefix with the previous one, as the rewriter does.
  std::vector<LabelId> incremental;
  const DeweyCode* prev = nullptr;
  for (const DeweyCode& code : codes) {
    const size_t keep =
        prev == nullptr
            ? 0
            : CommonPrefixLength(code.components(), prev->components());
    ASSERT_TRUE(tree.fst()->Decode(code.components(), &incremental, keep))
        << code.ToString();
    std::vector<LabelId> full;
    ASSERT_TRUE(tree.fst()->Decode(code.components(), &full));
    ASSERT_EQ(incremental, full) << code.ToString() << " kept " << keep;
    prev = &code;
  }
}

TEST(Fst, KeptPrefixDecodeRejectsUnderivableSuffix) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  const Fst* fst = tree->fst();
  // b/s/f/i: decodes in full; extending past the leaf i does not, whether
  // the prefix is decoded again or kept.
  for (size_t n = 0; n < tree->size(); ++n) {
    if (tree->label_name(static_cast<NodeId>(n)) != "i") {
      continue;
    }
    const std::vector<uint32_t> leaf =
        tree->dewey(static_cast<NodeId>(n)).components();
    std::vector<uint32_t> beyond = leaf;
    beyond.push_back(0);
    beyond.push_back(0);
    for (size_t keep = 0; keep <= leaf.size(); ++keep) {
      std::vector<LabelId> path;
      ASSERT_TRUE(fst->Decode(leaf, &path));
      EXPECT_FALSE(fst->Decode(beyond, &path, keep)) << "kept " << keep;
    }
    return;
  }
  FAIL() << "no i node found";
}

TEST(Dewey, SiblingCodesStrictlyIncrease) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  for (size_t i = 0; i < tree->size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    uint32_t prev = 0;
    bool first = true;
    for (NodeId c : tree->Children(n)) {
      const DeweyCode& code = tree->dewey(c);
      const uint32_t last = code.at(code.depth() - 1);
      if (!first) {
        EXPECT_GT(last, prev);
      }
      prev = last;
      first = false;
      EXPECT_TRUE(tree->dewey(n).IsPrefixOf(code));
      EXPECT_EQ(code.depth(), tree->dewey(n).depth() + 1);
    }
  }
}

TEST(Dewey, FindByDeweyRoundTrip) {
  auto tree = BookTree();
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  for (size_t i = 0; i < tree->size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    EXPECT_EQ(tree->FindByDewey(tree->dewey(n)), n);
  }
  EXPECT_EQ(tree->FindByDewey(DeweyCode({9, 9, 9})), kNullNode);
  EXPECT_EQ(tree->FindByDewey(DeweyCode()), kNullNode);
}

TEST(Dewey, XmarkDocumentDecodesEverywhere) {
  XmarkOptions options;
  options.scale = 0.3;
  options.seed = 7;
  XmlTree tree = GenerateXmark(options);
  ASSERT_TRUE(tree.has_dewey());
  ASSERT_GT(tree.size(), 500u);
  Rng rng(3);
  // Sample 500 nodes and verify decode == actual path.
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<NodeId>(rng.NextBounded(tree.size()));
    std::vector<LabelId> decoded;
    ASSERT_TRUE(tree.fst()->Decode(tree.dewey(n).components(), &decoded));
    std::vector<LabelId> actual;
    for (NodeId cur = n; cur != kNullNode; cur = tree.node(cur).parent) {
      actual.push_back(tree.label(cur));
    }
    std::reverse(actual.begin(), actual.end());
    EXPECT_EQ(decoded, actual);
  }
}

}  // namespace
}  // namespace xvr
