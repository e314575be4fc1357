#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "analysis/validate.h"
#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "pattern/evaluate.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "workload/workloads.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// The paper's running example: book.xml (Figure 2), Table I views, the
// Example 3.4 / 4.3 / 5.1 query s[f//i][t]/p.
class PaperRunningExample : public ::testing::Test {
 protected:
  PaperRunningExample() : engine_(MakeBook()) {}

  static XmlTree MakeBook() {
    auto r = ParseXml(
        "<b>"
        "<t/><a/><a/>"
        "<s><t/><f><i/></f><p/></s>"
        "<s><t/><p/>"
        "<s><t/><p/><f><i/></f></s>"
        "</s>"
        "</b>");
    return std::move(r).value();
  }
  TreePattern Parse(const std::string& xpath) {
    auto r = engine_.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  Engine engine_;
};

TEST_F(PaperRunningExample, Example34FilteringAndAnswering) {
  // Table I (as recoverable from the paper's text).
  const int32_t v1 = *engine_.AddView(Parse("//s[t]/p"));
  const int32_t v2 = *engine_.AddView(Parse("//s[.//f]/p"));
  const int32_t v3 = *engine_.AddView(Parse("//s/p"));
  const int32_t v4 = *engine_.AddView(Parse("//s[p]/f//i"));
  (void)v2;
  (void)v3;

  const TreePattern query = Parse("//s[f//i][t]/p");
  const FilterResult filtered = engine_.vfilter().Filter(query);
  // V1 and V4 must be among the candidates (the paper's outcome; our V2/V3
  // variants may also pass the path test).
  EXPECT_NE(std::find(filtered.candidates.begin(), filtered.candidates.end(),
                      v1),
            filtered.candidates.end());
  EXPECT_NE(std::find(filtered.candidates.begin(), filtered.candidates.end(),
                      v4),
            filtered.candidates.end());

  // Example 5.1: answering with V1+V4 yields the p's under s's that have
  // both t and f//i.
  auto hv = engine_.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hv.ok()) << hv.status();
  auto direct = engine_.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(hv->codes, direct->codes);
  EXPECT_EQ(hv->codes.size(), 2u);

  // The end-to-end run leaves every engine structure on its invariants
  // (also enforced by the XVR_DEBUG_VALIDATE hooks in Debug builds).
  EXPECT_TRUE(ValidateDocument(engine_.doc()).ok());
  EXPECT_TRUE(ValidateVFilter(engine_.vfilter()).ok());
  EXPECT_TRUE(ValidateFragmentStore(engine_.fragments(), *engine_.doc().fst(),
                                    [&](int32_t id) {
                                      return engine_.view(id);
                                    })
                  .ok());
  EXPECT_TRUE(ValidateAnswerCodes(hv->codes).ok());
}

TEST_F(PaperRunningExample, HeuristicUsesAtMostTwoViews) {
  ASSERT_TRUE(engine_.AddView(Parse("//s[t]/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("//s[p]/f//i")).ok());
  const TreePattern query = Parse("//s[f//i][t]/p");
  AnswerStats stats;
  auto selection = engine_.SelectViews(
      query, AnswerStrategy::kHeuristicFiltered, &stats);
  ASSERT_TRUE(selection.ok()) << selection.status();
  EXPECT_LE(selection->views.size(), 2u);
  EXPECT_GE(selection->PrimaryIndex(), 0);
}

TEST(Integration, PersistenceRoundTripThroughKvStoreFile) {
  const std::string path = TestTempPath("store.bin");
  XmarkOptions doc_options;
  doc_options.scale = 0.1;

  std::vector<DeweyCode> before_codes;
  {
    Engine engine(GenerateXmark(doc_options));
    auto view = engine.Parse("//closed_auction/date");
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(engine.AddView(std::move(view).value()).ok());
    auto query = engine.Parse("/site/closed_auctions/closed_auction/date");
    ASSERT_TRUE(query.ok());
    auto answer =
        engine.AnswerQuery(*query, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(answer.ok()) << answer.status();
    before_codes = answer->codes;

    KvStore kv;
    const TreePattern* stored = engine.view(0);
    ASSERT_NE(stored, nullptr);
    kv.Put("view", PatternToXPath(*stored, engine.doc().labels()));
    ASSERT_TRUE(engine.fragments().SaveTo(&kv).ok());
    ASSERT_TRUE(kv.SaveToFile(path).ok());
  }

  // Reload: the view pattern and the fragments survive the round trip, and
  // VFILTER is rebuilt from the pattern; the same document (regenerated
  // deterministically) gives the same FST.
  KvStore kv;
  ASSERT_TRUE(kv.LoadFromFile(path).ok());
  FragmentStore fragments;
  ASSERT_TRUE(fragments.LoadFrom(kv, /*id_limit=*/1).ok());  // one view, id 0
  EXPECT_EQ(fragments.num_views(), 1u);

  XmlTree doc = GenerateXmark(doc_options);
  auto view = ParseXPath(*kv.Get("view"), &doc.labels());
  ASSERT_TRUE(view.ok()) << view.status();
  VFilter filter;
  filter.AddView(0, *view);
  auto query =
      ParseXPath("/site/closed_auctions/closed_auction/date", &doc.labels());
  ASSERT_TRUE(query.ok());
  const FilterResult filtered = filter.Filter(*query);
  EXPECT_EQ(filtered.candidates, std::vector<int32_t>{0});
  std::remove(path.c_str());
}

TEST(Integration, MixedStrategiesOnPaperSetup) {
  XmarkOptions doc_options;
  doc_options.scale = 0.15;
  PaperSetup setup = BuildPaperSetup(doc_options, 25, 99);
  for (size_t i = 0; i < setup.queries.size(); ++i) {
    auto bn = setup.engine->AnswerQuery(setup.queries[i],
                                        AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(bn.ok());
    for (AnswerStrategy s :
         {AnswerStrategy::kBaseFullIndex, AnswerStrategy::kMinimumNoFilter,
          AnswerStrategy::kMinimumFiltered,
          AnswerStrategy::kHeuristicFiltered}) {
      auto answer = setup.engine->AnswerQuery(setup.queries[i], s);
      ASSERT_TRUE(answer.ok())
          << setup.query_names[i] << " via " << AnswerStrategyName(s) << ": "
          << answer.status();
      EXPECT_EQ(answer->codes, bn->codes)
          << setup.query_names[i] << " via " << AnswerStrategyName(s);
      EXPECT_TRUE(ValidateAnswerCodes(answer->codes).ok())
          << setup.query_names[i] << " via " << AnswerStrategyName(s);
    }
  }
  const Engine& engine = *setup.engine;
  EXPECT_TRUE(ValidateVFilter(engine.vfilter()).ok());
  EXPECT_TRUE(ValidateFragmentStore(engine.fragments(), *engine.doc().fst(),
                                    [&](int32_t id) { return engine.view(id); })
                  .ok());
}

TEST(Integration, TableIIIAdvertisedViewCounts) {
  // Build a setup containing ONLY the companion views: the minimum
  // selection must use exactly 1/2/2/3 views.
  XmarkOptions doc_options;
  doc_options.scale = 0.15;
  PaperSetup setup = BuildPaperSetup(doc_options, 0, 1);
  const std::vector<size_t> expected = {1, 2, 2, 3};
  for (size_t i = 0; i < setup.queries.size(); ++i) {
    AnswerStats stats;
    auto selection = setup.engine->SelectViews(
        setup.queries[i], AnswerStrategy::kMinimumNoFilter, &stats);
    ASSERT_TRUE(selection.ok())
        << setup.query_names[i] << ": " << selection.status();
    EXPECT_EQ(selection->views.size(), expected[i]) << setup.query_names[i];
  }
}

}  // namespace
}  // namespace xvr
