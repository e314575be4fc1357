#include <gtest/gtest.h>

#include "pattern/evaluate.h"
#include "pattern/xpath_parser.h"
#include "rewrite/compensate.h"
#include "rewrite/prefix_join.h"
#include "rewrite/rewriter.h"
#include "rewrite/skeleton.h"
#include "selection/minimum_selector.h"
#include "storage/materializer.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Path-on-labels matching (the encoding verification primitive).

class PrefixJoinTest : public ::testing::Test {
 protected:
  std::vector<LabelId> Labels(const std::string& names) {
    std::vector<LabelId> out;
    for (char c : names) {
      out.push_back(dict_.Intern(std::string(1, c)));
    }
    return out;
  }
  PathPattern Path(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << r.status();
    const Decomposition d = Decompose(*r);
    EXPECT_EQ(d.paths.size(), 1u);
    return d.paths[0];
  }
  LabelDict dict_;
};

TEST_F(PrefixJoinTest, ExactChildPath) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a/b/c"), Labels("abc")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b/c"), Labels("abd")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b/c"), Labels("ab")));
  // The last pattern step must be the LAST label.
  EXPECT_FALSE(PathMatchesLabels(Path("/a/b"), Labels("abc")));
}

TEST_F(PrefixJoinTest, DescendantSkips) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("abbc")));
  // // means proper descendant: one edge suffices.
  EXPECT_TRUE(PathMatchesLabels(Path("/a//c"), Labels("ac")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a//c"), Labels("cc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//a"), Labels("a")));
}

TEST_F(PrefixJoinTest, RootAnchor) {
  EXPECT_FALSE(PathMatchesLabels(Path("/b/c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("//b/c"), Labels("abc")));
}

TEST_F(PrefixJoinTest, Wildcards) {
  EXPECT_TRUE(PathMatchesLabels(Path("/a/*/c"), Labels("abc")));
  EXPECT_TRUE(PathMatchesLabels(Path("/a/*/c"), Labels("axc")));
  EXPECT_FALSE(PathMatchesLabels(Path("/a/*/c"), Labels("ac")));
}

TEST_F(PrefixJoinTest, EnumeratesAllAssignments) {
  // The last step is pinned to the last position (the fragment root), so
  // //b on a.b.b has exactly one assignment (b at depth 2).
  const auto single = MatchPathOnLabels(Path("//b"), Labels("abb"));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].back(), 2);
  // a//b//b on a.b.b.b: the middle b can sit at depth 1 or 2.
  EXPECT_EQ(MatchPathOnLabels(Path("/a//b//b"), Labels("abbb")).size(), 2u);
}

TEST_F(PrefixJoinTest, AssignmentCap) {
  // a//b//b on a.b.b.b.b: middle b at depth 1, 2 or 3; cap at 2.
  EXPECT_EQ(MatchPathOnLabels(Path("/a//b//b"), Labels("abbbb")).size(), 3u);
  EXPECT_EQ(MatchPathOnLabels(Path("/a//b//b"), Labels("abbbb"), 2).size(),
            2u);
}

// ---------------------------------------------------------------------------
// Full rewriting on a document small enough to reason about by hand.

class RewriteTest : public ::testing::Test {
 protected:
  void Load(const std::string& xml) {
    auto r = ParseXml(xml);
    ASSERT_TRUE(r.ok()) << r.status();
    tree_ = std::move(r).value();
    tree_.AssignDeweyCodes();
  }
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &tree_.labels());
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  // Materializes the views into store_ (view i gets id i).
  Status Materialize(const std::vector<std::string>& view_xpaths) {
    views_.clear();
    store_ = FragmentStore();
    for (size_t i = 0; i < view_xpaths.size(); ++i) {
      views_.push_back(Parse(view_xpaths[i]));
      auto frags = MaterializeView(views_.back(), tree_);
      if (!frags.ok()) {
        return frags.status();
      }
      store_.PutView(static_cast<int32_t>(i), std::move(frags).value());
    }
    return Status::Ok();
  }
  // A minimum view set for `query` over the materialized views.
  Result<SelectionResult> Select(const TreePattern& query) {
    std::vector<int32_t> ids;
    for (size_t i = 0; i < views_.size(); ++i) {
      ids.push_back(static_cast<int32_t>(i));
    }
    return SelectMinimum(query, ids, [this](int32_t id) {
      return &views_[static_cast<size_t>(id)];
    });
  }
  // Materializes the views, selects a minimum set, rewrites, and returns
  // the result codes.
  Result<std::vector<DeweyCode>> Answer(
      const std::string& query_xpath,
      const std::vector<std::string>& view_xpaths,
      RewriteStats* stats = nullptr) {
    XVR_RETURN_IF_ERROR(Materialize(view_xpaths));
    const TreePattern query = Parse(query_xpath);
    SelectionResult selection;
    XVR_ASSIGN_OR_RETURN(selection, Select(query));
    return AnswerWithViews(query, selection, store_, *tree_.fst(), stats);
  }
  // Ground truth via direct evaluation.
  std::vector<DeweyCode> Direct(const std::string& query_xpath) {
    std::vector<DeweyCode> codes;
    for (NodeId n : EvaluatePattern(Parse(query_xpath), tree_)) {
      codes.push_back(tree_.dewey(n));
    }
    std::sort(codes.begin(), codes.end());
    return codes;
  }

  XmlTree tree_;
  std::vector<TreePattern> views_;
  FragmentStore store_;
};

TEST_F(RewriteTest, SingleEquivalentView) {
  Load("<a><b><c/><d/></b><b><d/></b></a>");
  auto result = Answer("/a/b[c]/d", {"/a/b[c]/d"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[c]/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, SingleMoreGeneralViewWithCompensation) {
  Load("<a><b><c/><d/></b><b><d/></b></a>");
  // View //b materializes both b subtrees; the compensating query checks
  // [c] and extracts d.
  auto result = Answer("/a/b[c]/d", {"//b"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[c]/d"));
}

TEST_F(RewriteTest, AnchorPathCheckedOnCodes) {
  // View //d materializes d's everywhere; only those under a/b qualify.
  Load("<a><b><d/></b><x><d/></x></a>");
  RewriteStats stats;
  auto result = Answer("/a/b/d", {"//d"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b/d"));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(stats.fragments_scanned, 2u);
  EXPECT_EQ(stats.fragments_after_refinement, 1u);
}

TEST_F(RewriteTest, AnchorPathRecheckedWhenTheRootPathChanges) {
  // The three //d roots have codes of equal length whose label paths are
  // a/b/d, a/x/d, a/b/d: each change of path must re-match the anchor.
  Load("<a><b><d/></b><x><d/></x><b><d/></b></a>");
  RewriteStats stats;
  auto result = Answer("/a/b/d", {"//d"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b/d"));
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(stats.fragments_scanned, 3u);
  EXPECT_EQ(stats.fragments_after_refinement, 2u);
}

TEST_F(RewriteTest, UndecodableFragmentCodeIsInternal) {
  // Fragments answered with the transducer of another document: the first
  // root (a/b/d) decodes, the second stops decoding under x, a leaf there.
  Load("<a><b><d/></b><x><d/></x></a>");
  ASSERT_TRUE(Materialize({"//d"}).ok());
  auto other = ParseXml("<a><b><d/></b><x/></a>");
  ASSERT_TRUE(other.ok()) << other.status();
  other->AssignDeweyCodes();
  const TreePattern q = Parse("//d");
  auto selection = Select(q);
  ASSERT_TRUE(selection.ok()) << selection.status();
  auto result = AnswerWithViews(q, *selection, store_, *other->fst());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("does not decode"),
            std::string::npos)
      << result.status();
}

TEST_F(RewriteTest, PrimaryFragmentsFailingTheJoinEmitNothing) {
  // Every p root passes refinement; only the p's of the s with an f
  // survive the join, and only they count against the result budget.
  Load("<r><s><p/><p/></s><s><p/><f/></s><s><p/><p/><p/></s></r>");
  ASSERT_TRUE(Materialize({"/r/s/p", "/r/s/f"}).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  auto selection = Select(q);
  ASSERT_TRUE(selection.ok()) << selection.status();
  ASSERT_EQ(selection->views.size(), 2u);
  RewriteStats stats;
  RewriteOptions options;
  options.limits.max_result_codes = 1;
  auto result = AnswerWithViews(q, *selection, store_, *tree_.fst(), &stats,
                                options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/s[f]/p"));
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(stats.fragments_after_refinement, 7u);  // 6 p's + 1 f
  EXPECT_EQ(stats.join_survivors, 1u);

  // Two survivors over a budget of one still trip it.
  Load("<r><s><p/><p/></s><s><p/><f/><p/></s></r>");
  ASSERT_TRUE(Materialize({"/r/s/p", "/r/s/f"}).ok());
  const TreePattern q2 = Parse("/r/s[f]/p");
  selection = Select(q2);
  ASSERT_TRUE(selection.ok()) << selection.status();
  auto over = AnswerWithViews(q2, *selection, store_, *tree_.fst(), &stats,
                              options);
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted)
      << over.status();
  EXPECT_EQ(stats.join_survivors, 2u);
}

TEST_F(RewriteTest, TwoViewJoinOnSharedParent) {
  // Example 4.2-style: the join must pair fragments under the SAME parent.
  Load(
      "<r>"
      "<s><p/><f/></s>"    // s1: has both -> its p is an answer
      "<s><p/></s>"        // s2: p but no f
      "<s><f/></s>"        // s3: f but no p
      "</r>");
  auto result = Answer("/r/s[f]/p", {"/r/s/p", "/r/s/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/s[f]/p"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, PaperExample51) {
  // Views V1: s[t]/p, V2: s[p]/f answering Q: s[f//i][t]/p on a book-like
  // tree (nested s's).
  Load(
      "<b>"
      "<s><t/><f><i/></f><p/></s>"
      "<s><t/><p/><s><t/><p/><f><i/></f></s></s>"
      "</b>");
  auto result = Answer("//s[f//i][t]/p", {"//s[t]/p", "//s[p]/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s[f//i][t]/p"));
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(RewriteTest, ThreeViewJoin) {
  Load(
      "<r>"
      "<e><x/><y/><z/></e>"  // all three -> answer
      "<e><x/><y/></e>"      // no z
      "<e><y/><z/></e>"      // no x
      "</r>");
  auto result = Answer("/r/e[x][z]/y", {"/r/e/x", "/r/e/y", "/r/e/z"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/r/e[x][z]/y"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, JoinUnderDescendantAxisWithRepeatedLabels) {
  // Nested s's: anchors must agree on the exact s node.
  Load(
      "<b>"
      "<s><p/><s><f/><p/></s></s>"
      "<s><f/></s>"
      "</b>");
  auto result = Answer("//s[f]/p", {"//s/p", "//s/f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s[f]/p"));
}

TEST_F(RewriteTest, JoinFindsRowsProbedOutOfDocumentOrder) {
  // Primary d's in document order probe the //a/b/c rows at the inner a,
  // then at the outer a, which sorts before it.
  Load("<r><a><a><d/><b><c/></b></a><d/><b><c/></b></a></r>");
  auto result = Answer("//a[b/c]/d", {"//a/d", "//a/b/c"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//a[b/c]/d"));
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(RewriteTest, EmptyWhenSomeViewHasNoUsableFragment) {
  // The //f view has fragments, but none sits on the query's anchor path,
  // so the rewrite result is empty (matching direct evaluation).
  Load("<r><s><p/></s><x><f><g/></f></x></r>");
  auto result = Answer("/r/s[f/g]/p", {"/r/s/p", "//f"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(*result, Direct("/r/s[f/g]/p"));
}

TEST_F(RewriteTest, ExtractionDescendsIntoFragments) {
  Load("<a><b><c><d/></c></b><b><c/></b></a>");
  // View materializes b subtrees; query answer is d, deep inside.
  auto result = Answer("/a/b/c/d", {"/a/b"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b/c/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, ValuePredicateInsideFragment) {
  Load("<a><b k=\"1\"><d/></b><b k=\"2\"><d/></b></a>");
  auto result = Answer("/a/b[@k = 2]/d", {"/a/b[@k = 2]/d"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("/a/b[@k = 2]/d"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, OverlappingFragmentsDeduplicated) {
  // //s fragments nest (s inside s); answers must not duplicate.
  Load("<b><s><s><p/></s></s></b>");
  auto result = Answer("//s/p", {"//s"});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(*result, Direct("//s/p"));
  EXPECT_EQ(result->size(), 1u);
}

TEST_F(RewriteTest, StatsReported) {
  Load("<r><s><p/><f/></s><s><p/></s></r>");
  RewriteStats stats;
  auto result = Answer("/r/s[f]/p", {"/r/s/p", "/r/s/f"}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(stats.fragments_scanned, 3u);  // 2 p's + 1 f
  EXPECT_GE(stats.fragments_after_refinement, 2u);
  EXPECT_EQ(stats.join_survivors, 1u);
}

TEST_F(RewriteTest, SuppliedCompensationMustMatchTheSelection) {
  Load("<r><s><p/><f/></s><s><p/></s></r>");
  ASSERT_TRUE(Materialize({"/r/s/p", "/r/s/f"}).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  auto selection = Select(q);
  ASSERT_TRUE(selection.ok()) << selection.status();
  ASSERT_EQ(selection->views.size(), 2u);

  PlanCompensation compensation = BuildPlanCompensation(q, *selection);
  RewriteOptions options;
  options.compensation = &compensation;
  auto hoisted = AnswerWithViews(q, *selection, store_, *tree_.fst(),
                                 nullptr, options);
  ASSERT_TRUE(hoisted.ok()) << hoisted.status();
  EXPECT_EQ(*hoisted, Direct("/r/s[f]/p"));

  // A compensation that is not parallel to the selection is a caller bug.
  compensation.views.pop_back();
  auto mismatched = AnswerWithViews(q, *selection, store_, *tree_.fst(),
                                    nullptr, options);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInternal);
}

TEST_F(RewriteTest, SkeletonConstruction) {
  Load("<r><s><p/><f/></s></r>");
  const TreePattern q = Parse("/r/s[f]/p");
  std::vector<TreePattern> views = {Parse("/r/s/p"), Parse("/r/s/f")};
  std::vector<int32_t> ids = {0, 1};
  auto selection = SelectMinimum(q, ids, [&](int32_t id) {
    return &views[static_cast<size_t>(id)];
  });
  ASSERT_TRUE(selection.ok()) << selection.status();
  const Skeleton skeleton = BuildSkeleton(q, selection->views);
  ASSERT_EQ(skeleton.view_paths.size(), 2u);
  // r and s lie on both anchor paths.
  EXPECT_EQ(skeleton.shared.size(), 2u);
  EXPECT_GE(skeleton.nodes.size(), 3u);
}

}  // namespace
}  // namespace xvr
