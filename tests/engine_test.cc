#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

XmlTree SmallDoc() {
  auto r = ParseXml(
      "<r>"
      "<s><p/><f/></s>"
      "<s><p/></s>"
      "<s><f/></s>"
      "</r>");
  XmlTree tree = std::move(r).value();
  return tree;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(SmallDoc()) {}
  TreePattern Parse(const std::string& xpath) {
    auto r = engine_.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  Engine engine_;
};

TEST_F(EngineTest, AddViewMaterializes) {
  auto id = engine_.AddView(Parse("/r/s/p"));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(engine_.num_views(), 1u);
  ASSERT_NE(engine_.view(*id), nullptr);
  ASSERT_NE(engine_.fragments().GetView(*id), nullptr);
  EXPECT_EQ(engine_.fragments().GetView(*id)->size(), 2u);
}

TEST_F(EngineTest, AddEmptyViewFails) {
  auto id = engine_.AddView(Parse("/r/x"));
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.num_views(), 0u);
}

TEST_F(EngineTest, RemoveView) {
  auto id = engine_.AddView(Parse("/r/s/p"));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(engine_.RemoveView(*id).ok());
  EXPECT_EQ(engine_.num_views(), 0u);
  EXPECT_EQ(engine_.view(*id), nullptr);
  EXPECT_FALSE(engine_.fragments().HasView(*id));
}

TEST_F(EngineTest, RemoveUnknownViewReportsNotFound) {
  EXPECT_EQ(engine_.RemoveView(7).code(), StatusCode::kNotFound);
  auto id = engine_.AddView(Parse("/r/s/p"));
  ASSERT_TRUE(id.ok());
  // Removing twice: the second call finds nothing and the catalog version
  // only moves for the successful removal.
  EXPECT_TRUE(engine_.RemoveView(*id).ok());
  const uint64_t version = engine_.catalog_version();
  EXPECT_EQ(engine_.RemoveView(*id).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_.catalog_version(), version);
}

TEST_F(EngineTest, BaseStrategiesAgree) {
  const TreePattern q = Parse("/r/s[f]/p");
  auto bn = engine_.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  auto bf = engine_.AnswerQuery(q, AnswerStrategy::kBaseFullIndex);
  ASSERT_TRUE(bn.ok());
  ASSERT_TRUE(bf.ok());
  EXPECT_EQ(bn->codes, bf->codes);
  EXPECT_EQ(bn->codes.size(), 1u);
}

TEST_F(EngineTest, AllViewStrategiesAgreeWithBase) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  auto expected = engine_.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(expected.ok());
  for (AnswerStrategy s :
       {AnswerStrategy::kMinimumNoFilter, AnswerStrategy::kMinimumFiltered,
        AnswerStrategy::kHeuristicFiltered}) {
    auto answer = engine_.AnswerQuery(q, s);
    ASSERT_TRUE(answer.ok()) << AnswerStrategyName(s) << ": "
                             << answer.status();
    EXPECT_EQ(answer->codes, expected->codes) << AnswerStrategyName(s);
    EXPECT_EQ(answer->stats.views_selected, 2u) << AnswerStrategyName(s);
  }
}

TEST_F(EngineTest, UnanswerableQueryReported) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  auto answer = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  EXPECT_EQ(answer.status().code(), StatusCode::kNotAnswerable);
}

TEST_F(EngineTest, SelectViewsExposesStats) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  AnswerStats stats;
  auto selection =
      engine_.SelectViews(q, AnswerStrategy::kHeuristicFiltered, &stats);
  ASSERT_TRUE(selection.ok()) << selection.status();
  EXPECT_GT(stats.candidates_after_filter, 0u);
  EXPECT_GT(stats.covers_computed, 0);
  EXPECT_GE(stats.filter_micros, 0.0);
}

TEST_F(EngineTest, SelectViewsRejectsBaseStrategies) {
  AnswerStats stats;
  EXPECT_EQ(engine_
                .SelectViews(Parse("/r/s"), AnswerStrategy::kBaseNodeIndex,
                             &stats)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, CapacityCapHonored) {
  EngineOptions options;
  options.materialize.max_bytes_per_view = 8;
  Engine tiny(SmallDoc(), options);
  auto view = tiny.Parse("/r/s");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(tiny.AddView(std::move(view).value()).status().code(),
            StatusCode::kCapacityExceeded);
}

TEST_F(EngineTest, StrategyNames) {
  EXPECT_STREQ(AnswerStrategyName(AnswerStrategy::kBaseNodeIndex), "BN");
  EXPECT_STREQ(AnswerStrategyName(AnswerStrategy::kBaseFullIndex), "BF");
  EXPECT_STREQ(AnswerStrategyName(AnswerStrategy::kMinimumNoFilter), "MN");
  EXPECT_STREQ(AnswerStrategyName(AnswerStrategy::kMinimumFiltered), "MV");
  EXPECT_STREQ(AnswerStrategyName(AnswerStrategy::kHeuristicFiltered), "HV");
}

TEST(EngineXmark, EndToEndOnGeneratedDocument) {
  XmarkOptions options;
  options.scale = 0.2;
  Engine engine(GenerateXmark(options));
  auto view = engine.Parse("//person[profile/interest]/name");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(engine.AddView(std::move(view).value()).ok());
  auto query = engine.Parse("/site/people/person[profile/interest]/name");
  ASSERT_TRUE(query.ok());
  auto hv = engine.AnswerQuery(*query, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hv.ok()) << hv.status();
  auto bn = engine.AnswerQuery(*query, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(hv->codes, bn->codes);
  EXPECT_FALSE(hv->codes.empty());
  EXPECT_EQ(hv->stats.views_selected, 1u);
}

}  // namespace
}  // namespace xvr
