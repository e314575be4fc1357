#include <gtest/gtest.h>

#include "pattern/path_pattern.h"
#include "pattern/pattern_writer.h"
#include "pattern/tree_pattern.h"
#include "pattern/xpath_parser.h"

namespace xvr {
namespace {

class PatternTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  LabelDict dict_;
};

TEST_F(PatternTest, BuildAndInspect) {
  TreePattern p;
  const auto a = p.AddRoot(dict_.Intern("a"));
  const auto b = p.AddChild(a, Axis::kChild, dict_.Intern("b"));
  const auto c = p.AddChild(a, Axis::kDescendant, dict_.Intern("c"));
  const auto d = p.AddChild(b, Axis::kChild, dict_.Intern("d"));
  p.SetAnswer(d);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.root(), a);
  EXPECT_EQ(p.answer(), d);
  EXPECT_FALSE(p.IsPath());
  EXPECT_EQ(p.Leaves(), (std::vector<TreePattern::NodeIndex>{c, d}));
  EXPECT_EQ(p.PathFromRoot(d),
            (std::vector<TreePattern::NodeIndex>{a, b, d}));
  EXPECT_TRUE(p.IsAncestorOrSelf(a, d));
  EXPECT_FALSE(p.IsAncestorOrSelf(b, c));
  EXPECT_EQ(p.Depth(d), 2);
}

TEST_F(PatternTest, PathDetection) {
  EXPECT_TRUE(Parse("/a/b//c").IsPath());
  EXPECT_FALSE(Parse("/a[b]/c").IsPath());
  EXPECT_TRUE(Parse("//x").IsPath());
}

TEST_F(PatternTest, SubtreePatternPreservesAnswer) {
  TreePattern q = Parse("/a/b[c]/d");  // answer d
  // Subtree at b: pattern b[c]/d with answer d.
  const auto b = q.PathFromRoot(q.answer())[1];
  TreePattern sub = q.SubtreePattern(b);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(dict_.Name(sub.label(sub.root())), "b");
  EXPECT_EQ(dict_.Name(sub.label(sub.answer())), "d");
  EXPECT_EQ(sub.axis(sub.root()), Axis::kChild);
}

TEST_F(PatternTest, SubtreePatternWithoutAnswerUsesRoot) {
  TreePattern q = Parse("/a[b/e]/d");
  // Subtree at the b predicate node: answer not inside -> root.
  TreePattern::NodeIndex b = TreePattern::kNoNode;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q.label(static_cast<TreePattern::NodeIndex>(i)) ==
        dict_.Find("b")) {
      b = static_cast<TreePattern::NodeIndex>(i);
    }
  }
  ASSERT_NE(b, TreePattern::kNoNode);
  TreePattern sub = q.SubtreePattern(b);
  EXPECT_EQ(sub.answer(), sub.root());
  EXPECT_EQ(sub.size(), 2u);
}

TEST_F(PatternTest, RemoveSubtree) {
  TreePattern q = Parse("/a[b/c][e]/d");
  const size_t before = q.size();
  // Remove the b/c branch.
  TreePattern::NodeIndex b = TreePattern::kNoNode;
  for (size_t i = 0; i < q.size(); ++i) {
    if (q.label(static_cast<TreePattern::NodeIndex>(i)) == dict_.Find("b")) {
      b = static_cast<TreePattern::NodeIndex>(i);
    }
  }
  q.RemoveSubtree(b);
  EXPECT_EQ(q.size(), before - 2);
  EXPECT_EQ(dict_.Name(q.label(q.answer())), "d");
  EXPECT_EQ(q.Leaves().size(), 2u);  // e and d
}

TEST_F(PatternTest, CanonicalKeyIgnoresChildOrder) {
  TreePattern p1 = Parse("/a[b][c]/d");
  TreePattern p2 = Parse("/a[c][b]/d");
  EXPECT_EQ(p1.CanonicalKey(), p2.CanonicalKey());
  TreePattern p3 = Parse("/a[b][c]//d");
  EXPECT_NE(p1.CanonicalKey(), p3.CanonicalKey());
}

TEST_F(PatternTest, CanonicalKeySeesAnswerPosition) {
  TreePattern p1 = Parse("/a/b");
  TreePattern p2 = Parse("/a[b]");
  EXPECT_NE(p1.CanonicalKey(), p2.CanonicalKey());
}

TEST_F(PatternTest, DecompositionDistinctPaths) {
  TreePattern q = Parse("/b[.//t]//f//t");  // paths b//t (x2 forms) b//f//t
  const Decomposition d = Decompose(q);
  EXPECT_EQ(d.leaves.size(), 2u);
  EXPECT_EQ(d.paths.size(), 2u);
}

TEST_F(PatternTest, DecompositionMergesDuplicates) {
  TreePattern q = Parse("/a[b][b]/c");
  const Decomposition d = Decompose(q);
  EXPECT_EQ(d.leaves.size(), 3u);
  EXPECT_EQ(d.paths.size(), 2u);  // a/b (deduped) and a/c
  // Both b leaves map to the same path id.
  EXPECT_EQ(d.leaf_to_path[0], d.leaf_to_path[1]);
  EXPECT_NE(d.leaf_to_path[0], d.leaf_to_path[2]);
}

TEST_F(PatternTest, PathToTokens) {
  TreePattern q = Parse("/b//f/*");
  const Decomposition d = Decompose(q);
  ASSERT_EQ(d.paths.size(), 1u);
  // The writer replaces what the buffer held.
  std::vector<int32_t> tokens = {kHashToken, kHashToken};
  PathToTokens(d.paths[0], &tokens);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], dict_.Find("b"));
  EXPECT_EQ(tokens[1], kHashToken);
  EXPECT_EQ(tokens[2], dict_.Find("f"));
  EXPECT_EQ(tokens[3], kWildcardLabel);
}

TEST_F(PatternTest, PathPatternToTreeRoundTrip) {
  TreePattern q = Parse("//a/b//c");
  const Decomposition d = Decompose(q);
  ASSERT_EQ(d.paths.size(), 1u);
  TreePattern back = d.paths[0].ToTreePattern();
  EXPECT_EQ(back.CanonicalKey(), q.CanonicalKey());
  EXPECT_EQ(d.paths[0].ToString(dict_), "//a/b//c");
}

TEST_F(PatternTest, ValuePredicateComparisons) {
  ValuePredicate eq{"x", ValuePredicate::Op::kEq, "10"};
  EXPECT_TRUE(eq.Matches("10"));
  EXPECT_TRUE(eq.Matches("10.0"));  // numeric comparison
  EXPECT_FALSE(eq.Matches("11"));
  ValuePredicate lt{"x", ValuePredicate::Op::kLt, "9"};
  EXPECT_TRUE(lt.Matches("8.5"));
  EXPECT_FALSE(lt.Matches("9"));
  ValuePredicate ge{"x", ValuePredicate::Op::kGe, "abc"};
  EXPECT_TRUE(ge.Matches("abd"));  // lexicographic fallback
  EXPECT_FALSE(ge.Matches("abb"));
  ValuePredicate ne{"x", ValuePredicate::Op::kNe, "a"};
  EXPECT_TRUE(ne.Matches("b"));
  EXPECT_FALSE(ne.Matches("a"));
}

TEST_F(PatternTest, WriterRoundTrips) {
  const std::vector<std::string> cases = {
      "/a/b/c",          "//a//b",           "/a[b]/c",
      "/a[b/c][d]//e",   "/site//item[*]/name",
      "//a[.//b]/c",     "/a/*//b",
  };
  for (const std::string& xpath : cases) {
    TreePattern p = Parse(xpath);
    const std::string printed = PatternToXPath(p, dict_);
    TreePattern reparsed = Parse(printed);
    EXPECT_EQ(reparsed.CanonicalKey(), p.CanonicalKey())
        << xpath << " -> " << printed;
  }
}

TEST_F(PatternTest, WriterHandlesValuePredicates) {
  TreePattern p = Parse("/a[@id = \"7\"]/b");
  const std::string printed = PatternToXPath(p, dict_);
  TreePattern reparsed = Parse(printed);
  EXPECT_EQ(reparsed.CanonicalKey(), p.CanonicalKey()) << printed;
}

}  // namespace
}  // namespace xvr
