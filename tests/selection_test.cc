#include <gtest/gtest.h>

#include <algorithm>

#include "pattern/xpath_parser.h"
#include "selection/heuristic_selector.h"
#include "selection/leaf_cover.h"
#include "selection/minimum_selector.h"
#include "vfilter/vfilter.h"

namespace xvr {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }

  // Leaf labels covered by LC(view, query), plus "^" for Δ.
  std::vector<std::string> Cover(const std::string& view,
                                 const std::string& query) {
    const TreePattern v = Parse(view);
    const TreePattern q = Parse(query);
    auto cover = ComputeLeafCover(v, q);
    std::vector<std::string> out;
    if (!cover.has_value()) {
      return out;
    }
    if (cover->covers_answer) {
      out.push_back("^");
    }
    for (TreePattern::NodeIndex leaf : cover->leaves) {
      out.push_back(dict_.Name(q.label(leaf)));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  LabelDict dict_;
};

TEST_F(SelectionTest, IdenticalViewCoversEverything) {
  EXPECT_EQ(Cover("/a[b]/c", "/a[b]/c"),
            (std::vector<std::string>{"^", "b", "c"}));
}

TEST_F(SelectionTest, NoHomomorphismEmptyCover) {
  EXPECT_TRUE(Cover("/a/x", "/a[b]/c").empty());
}

TEST_F(SelectionTest, AnswerAncestorGivesDelta) {
  // View answers a; query answers c below a: Δ + everything under a.
  EXPECT_EQ(Cover("/a", "/a[b]/c"),
            (std::vector<std::string>{"^", "b", "c"}));
}

TEST_F(SelectionTest, SiblingPredicateNotCoveredWithoutWitness) {
  // View /a/c knows nothing about b.
  EXPECT_EQ(Cover("/a/c", "/a[b]/c"), (std::vector<std::string>{"^", "c"}));
}

TEST_F(SelectionTest, PredicateHeldOnViewByBranchImplication) {
  // The view checks b at the same branch node; leaf b is covered.
  EXPECT_EQ(Cover("/a[b]/c", "/a[b]/c/d"),
            (std::vector<std::string>{"^", "b", "d"}));
}

TEST_F(SelectionTest, GeneralAnchorStillCoversPredicates) {
  // //person[profile/interest]/name vs the absolute query: the branch is
  // anchored at the person node, so interest is covered despite the root
  // paths differing.
  EXPECT_EQ(Cover("//person[profile/interest]/name",
                  "/site/people/person[profile/interest]/name"),
            (std::vector<std::string>{"^", "interest", "name"}));
}

TEST_F(SelectionTest, MisanchoredPredicateNotCovered) {
  // Query: the SAME b must have c and d. View: some b has c, answer under
  // another chain — the view's witness hangs off a, not off the query's b.
  EXPECT_EQ(Cover("/a[b/c]/b/d", "/a/b[c]/d"),
            (std::vector<std::string>{"^", "d"}));
}

TEST_F(SelectionTest, WildcardViewBranchDoesNotImplyLabeledQuery) {
  // View checks [*/c] (some child with c); query needs [b/c] exactly — the
  // weaker view predicate cannot witness the query's leaf.
  EXPECT_EQ(Cover("/a[*/c]/e", "/a[b/c]/e"),
            (std::vector<std::string>{"^", "e"}));
}

TEST_F(SelectionTest, EquivalentBranchWithDescendantAxesCovered) {
  // Branches written identically with a // edge are still implied.
  EXPECT_EQ(Cover("/a[b//c]/e", "/a[b//c]/e/f"),
            (std::vector<std::string>{"^", "c", "f"}));
}

TEST_F(SelectionTest, WeakerViewBranchDoesNotImplyStrongerQuery) {
  // View checks .//c; query needs b/c exactly.
  EXPECT_EQ(Cover("/a[.//c]/e", "/a[b/c]/e"),
            (std::vector<std::string>{"^", "e"}));
}

TEST_F(SelectionTest, ViewAnsweringBelowQueryAnswerHasNoDelta) {
  // View answers d (below query answer b): no Δ, but leaves under d covered.
  const auto cover = Cover("/a/b/d", "/a/b[d]");
  EXPECT_EQ(cover, (std::vector<std::string>{"d"}));
}

TEST_F(SelectionTest, UpperValuePredicateMustBeMirrored) {
  // The query has @x on an ancestor of the anchor; a view without it cannot
  // anchor there soundly.
  EXPECT_TRUE(Cover("/a/b/c", "/a[@x = 1]/b/c").empty());
  EXPECT_EQ(Cover("/a[@x = 1]/b/c", "/a[@x = 1]/b/c"),
            (std::vector<std::string>{"^", "c"}));
}

TEST_F(SelectionTest, LeafUniverseMasks) {
  const TreePattern q = Parse("/a[b][c]/d");
  LeafUniverse universe(q);
  EXPECT_EQ(universe.leaves.size(), 3u);
  EXPECT_EQ(universe.full_mask, 0b1111u);
  LeafCover cover;
  cover.covers_answer = true;
  cover.leaves = {universe.leaves[1]};
  EXPECT_EQ(universe.MaskOf(cover), 0b1010u);
}

// ---------------------------------------------------------------------------
// Selector tests use a small catalog.

class SelectorTest : public SelectionTest {
 protected:
  void AddView(const std::string& xpath) {
    views_.push_back(Parse(xpath));
    filter_.AddView(static_cast<int32_t>(views_.size() - 1), views_.back());
  }
  ViewLookup Lookup() {
    return [this](int32_t id) -> const TreePattern* {
      if (id < 0 || static_cast<size_t>(id) >= views_.size()) return nullptr;
      return &views_[static_cast<size_t>(id)];
    };
  }
  std::vector<int32_t> AllIds() const {
    std::vector<int32_t> ids(views_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
    return ids;
  }
  std::vector<int32_t> Ids(const SelectionResult& r) const {
    std::vector<int32_t> ids;
    for (const SelectedView& v : r.views) ids.push_back(v.view_id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::vector<TreePattern> views_;
  VFilter filter_;
};

TEST_F(SelectorTest, MinimumPicksSingleEquivalentView) {
  AddView("/a[b]/c");       // answers alone
  AddView("/a/c");          // partial
  AddView("//b");           // partial
  const TreePattern q = Parse("/a[b]/c");
  auto r = SelectMinimum(q, AllIds(), Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->views.size(), 1u);
  EXPECT_EQ(r->views[0].view_id, 0);
  EXPECT_GE(r->covers_computed, 3);
}

TEST_F(SelectorTest, MinimumCombinesTwoViews) {
  AddView("/a/c");          // Δ + c, not b
  AddView("/a/b");          // covers b (answer below... no Δ)
  const TreePattern q = Parse("/a[b]/c");
  auto r = SelectMinimum(q, AllIds(), Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Ids(*r), (std::vector<int32_t>{0, 1}));
  EXPECT_GE(r->PrimaryIndex(), 0);
}

TEST_F(SelectorTest, MinimumReportsUnanswerable) {
  AddView("/a/c");
  const TreePattern q = Parse("/a[b]/c");
  auto r = SelectMinimum(q, AllIds(), Lookup());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAnswerable);
}

TEST_F(SelectorTest, MinimumIsActuallyMinimum) {
  // Three partial views vs one complete view: minimum must be size 1.
  AddView("/a/d");
  AddView("/a/b");
  AddView("/a/c");
  AddView("/a[b][c]/d");
  const TreePattern q = Parse("/a[b][c]/d");
  auto r = SelectMinimum(q, AllIds(), Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->views.size(), 1u);
  EXPECT_EQ(r->views[0].view_id, 3);
}

TEST_F(SelectorTest, MinimumRespectsCandidateList) {
  AddView("/a[b]/c");
  AddView("/a/c");
  const TreePattern q = Parse("/a[b]/c");
  // Exclude the perfect view: the remaining one cannot cover b.
  auto r = SelectMinimum(q, {1}, Lookup());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAnswerable);
}

TEST_F(SelectorTest, HeuristicAnswersWithFilteredLists) {
  AddView("/a/c");   // Δ + c
  AddView("/a/b");   // b
  AddView("/a/x");   // irrelevant
  const TreePattern q = Parse("/a[b]/c");
  const FilterResult filtered = filter_.Filter(q);
  auto r = SelectHeuristic(q, filtered, Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Ids(*r), (std::vector<int32_t>{0, 1}));
  LeafUniverse universe(q);
  EXPECT_TRUE(CoversQuery(universe, r->views));
}

TEST_F(SelectorTest, HeuristicPrefersLongerViews) {
  AddView("//c");          // length-1 path, large fragments
  AddView("/a[b]/c");      // length-2 path, covers everything
  const TreePattern q = Parse("/a[b]/c");
  auto r = SelectHeuristic(q, filter_.Filter(q), Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->views.size(), 1u);
  EXPECT_EQ(r->views[0].view_id, 1);
}

TEST_F(SelectorTest, HeuristicRemovesRedundantViews) {
  AddView("/a/b");        // covers b only
  AddView("/a[b][c]/d");  // covers everything
  const TreePattern q = Parse("/a[b][c]/d");
  auto r = SelectHeuristic(q, filter_.Filter(q), Lookup());
  ASSERT_TRUE(r.ok()) << r.status();
  // Whatever path it took, the result must be minimal: no removable view.
  LeafUniverse universe(q);
  for (size_t drop = 0; drop < r->views.size(); ++drop) {
    std::vector<SelectedView> rest;
    for (size_t j = 0; j < r->views.size(); ++j) {
      if (j != drop) rest.push_back(r->views[j]);
    }
    EXPECT_FALSE(CoversQuery(universe, rest));
  }
}

TEST_F(SelectorTest, HeuristicUnanswerableWhenLeafUncovered) {
  AddView("/a/c");
  const TreePattern q = Parse("/a[b]/c");
  auto r = SelectHeuristic(q, filter_.Filter(q), Lookup());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAnswerable);
}

TEST_F(SelectorTest, HeuristicNeedsDeltaProvider) {
  AddView("/a/b");  // covers leaf b but never Δ
  const TreePattern q = Parse("/a[b]");
  auto r = SelectHeuristic(q, filter_.Filter(q), Lookup());
  EXPECT_EQ(r.status().code(), StatusCode::kNotAnswerable);
}

TEST_F(SelectorTest, SelectorsAgreeOnAnswerability) {
  AddView("//c");
  AddView("/a/b");
  AddView("/a[b]/c/d");
  const std::vector<std::string> queries = {"/a[b]/c", "/a[b]/c/d", "/a/x",
                                            "/a[b][x]/c"};
  for (const std::string& qx : queries) {
    const TreePattern q = Parse(qx);
    auto minimum = SelectMinimum(q, AllIds(), Lookup());
    auto heuristic = SelectHeuristic(q, filter_.Filter(q), Lookup());
    EXPECT_EQ(minimum.ok(), heuristic.ok()) << qx;
  }
}

}  // namespace
}  // namespace xvr
