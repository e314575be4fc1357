#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "pattern/evaluate.h"
#include "pattern/homomorphism.h"
#include "pattern/xpath_parser.h"
#include "test_util.h"
#include "vfilter/vfilter.h"
#include "workload/query_gen.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Value predicates under VFILTER. The filter is structural (§III): it
// indexes no value predicate, so a predicate only ever keeps a view in.

class AttributeFilterTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  VFilter Build(const std::vector<std::string>& views) {
    VFilter filter;
    for (size_t i = 0; i < views.size(); ++i) {
      filter.AddView(static_cast<int32_t>(i), Parse(views[i]));
    }
    return filter;
  }
  static bool Has(const FilterResult& r, int32_t id) {
    return std::find(r.candidates.begin(), r.candidates.end(), id) !=
           r.candidates.end();
  }
  LabelDict dict_;
};

TEST_F(AttributeFilterTest, PredicatedQueryMatchesUnpredicatedView) {
  VFilter filter = Build({"/a/b/c"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/a/b[@id = 1]/c")), 0));
}

TEST_F(AttributeFilterTest, UnknownQueryPredicateIsInvisible) {
  VFilter filter = Build({"/a/b/c"});
  // The query carries a predicate no view has.
  EXPECT_TRUE(Has(filter.Filter(Parse("/a/b[@zzz = \"q\"]/c")), 0));
}

TEST_F(AttributeFilterTest, SoundOnGeneratedAttributeWorkload) {
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  XmlTree doc = GenerateXmark(doc_options);
  QueryGenOptions gen;
  gen.prob_attr = 0.5;
  gen.num_pred = 2;
  QueryGenerator generator(doc, gen);
  Rng rng(5);
  std::vector<TreePattern> views;
  VFilter filter;
  for (int i = 0; i < 120; ++i) {
    views.push_back(generator.Generate(&rng));
    filter.AddView(i, views.back());
  }
  int containments = 0;
  for (int i = 0; i < 40; ++i) {
    const TreePattern query = generator.Generate(&rng);
    const FilterResult result = filter.Filter(query);
    for (size_t v = 0; v < views.size(); ++v) {
      if (ExistsHomomorphism(views[v], query)) {
        ++containments;
        EXPECT_TRUE(std::find(result.candidates.begin(),
                              result.candidates.end(),
                              static_cast<int32_t>(v)) !=
                    result.candidates.end());
      }
    }
  }
  EXPECT_GT(containments, 0);
}

// ---------------------------------------------------------------------------
// Generator attribute predicates.

TEST(QueryGenAttributes, EmittedWhenEnabled) {
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  XmlTree doc = GenerateXmark(doc_options);
  QueryGenOptions gen;
  gen.prob_attr = 1.0;
  QueryGenerator generator(doc, gen);
  Rng rng(9);
  int with_pred = 0;
  int positive = 0;
  for (int i = 0; i < 60; ++i) {
    const TreePattern q = generator.Generate(&rng);
    bool has = false;
    for (size_t n = 0; n < q.size(); ++n) {
      if (q.node(static_cast<TreePattern::NodeIndex>(n))
              .value_pred.has_value()) {
        has = true;
      }
    }
    if (has) ++with_pred;
    if (!EvaluatePattern(q, doc).empty()) ++positive;
  }
  EXPECT_GT(with_pred, 20);
  // Values are sampled from the document, so most stay positive.
  EXPECT_GT(positive, 30);
}

TEST(QueryGenAttributes, OffByDefault) {
  XmarkOptions doc_options;
  doc_options.scale = 0.05;
  XmlTree doc = GenerateXmark(doc_options);
  QueryGenerator generator(doc, {});
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const TreePattern q = generator.Generate(&rng);
    for (size_t n = 0; n < q.size(); ++n) {
      EXPECT_FALSE(q.node(static_cast<TreePattern::NodeIndex>(n))
                       .value_pred.has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Engine: persistence.

TEST(EngineExtensions, SaveLoadStateRoundTrip) {
  const std::string path = TestTempPath("state.bin");
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  std::vector<DeweyCode> expected;
  size_t num_views = 0;
  {
    Engine engine(GenerateXmark(doc_options));
    for (const char* vx :
         {"//closed_auction/date", "//person[profile/interest]/name"}) {
      auto v = engine.Parse(vx);
      ASSERT_TRUE(v.ok());
      ASSERT_TRUE(engine.AddView(std::move(v).value()).ok());
    }
    num_views = engine.num_views();
    auto q = engine.Parse("/site/closed_auctions/closed_auction/date");
    auto a = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(a.ok());
    expected = a->codes;
    ASSERT_TRUE(engine.SaveState(path).ok());
  }
  auto loaded = Engine::LoadState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Engine& engine = **loaded;
  EXPECT_EQ(engine.num_views(), num_views);
  auto q = engine.Parse("/site/closed_auctions/closed_auction/date");
  ASSERT_TRUE(q.ok());
  auto a = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->codes, expected);
  // New views can still be added after restore.
  auto v = engine.Parse("//open_auction/current");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(engine.AddView(std::move(v).value()).ok());
  std::remove(path.c_str());
}

TEST(EngineExtensions, RedundantQueryBranchesMinimizedAway) {
  auto parsed = ParseXml("<a><b><c/><d/></b><b><d/></b></a>");
  ASSERT_TRUE(parsed.ok());
  Engine engine(std::move(parsed).value());
  auto view = engine.Parse("/a/b[c]/d");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(engine.AddView(std::move(view).value()).ok());
  // [c][c][.//c] is equivalent to [c]; with minimization the single view
  // answers it exactly.
  auto q = engine.Parse("/a/b[c][c][.//c]/d");
  ASSERT_TRUE(q.ok());
  auto hv = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hv.ok()) << hv.status();
  auto bn = engine.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(hv->codes, bn->codes);
  EXPECT_EQ(hv->codes.size(), 1u);
}

TEST(EngineExtensions, LoadStateRejectsGarbage) {
  EXPECT_FALSE(Engine::LoadState(TestTempPath("missing.bin")).ok());
  const std::string path = TestTempPath("garbage.bin");
  KvStore kv;
  kv.Put("unrelated", "stuff");
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  EXPECT_FALSE(Engine::LoadState(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xvr
