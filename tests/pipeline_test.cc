// Tests for the staged query pipeline: plan caching and invalidation,
// threaded AnswerQuery equivalence with sequential AnswerQuery across all
// strategies, and full resource release on RemoveView.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "obs/trace.h"
#include "pattern/xpath_parser.h"
#include "test_util.h"
#include "workload/workloads.h"
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
  return std::move(r).value();
}

// SmallDoc plus a third <p/> and a nested <s>.
XmlTree LargerDoc() {
  auto r = ParseXml(
      "<r>"
      "<s><p/><f/></s>"
      "<s><p/><f/><p/></s>"
      "<s><f/></s>"
      "<t><s><p/><f/></s></t>"
      "</r>");
  return std::move(r).value();
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : engine_(SmallDoc()) {}
  TreePattern Parse(const std::string& xpath) {
    auto r = engine_.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  Engine engine_;
};

TEST_F(PipelineTest, RepeatedQueryHitsPlanCache) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");

  auto first = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->stats.plan_cache_hit);

  auto second = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->stats.plan_cache_hit);
  EXPECT_EQ(first->codes, second->codes);

  ASSERT_NE(engine_.plan_cache(), nullptr);
  const PlanCache::Stats stats = engine_.plan_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PipelineTest, StructurallyEqualQueriesShareAPlan) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  // Same pattern parsed twice: distinct objects, same canonical key.
  const TreePattern a = Parse("/r/s[f]/p");
  const TreePattern b = Parse("/r/s[f]/p");
  ASSERT_TRUE(
      engine_.AnswerQuery(a, AnswerStrategy::kHeuristicFiltered).ok());
  auto answer = engine_.AnswerQuery(b, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->stats.plan_cache_hit);
}

TEST_F(PipelineTest, StrategiesDoNotSharePlans) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  ASSERT_TRUE(
      engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());
  auto mv = engine_.AnswerQuery(q, AnswerStrategy::kMinimumFiltered);
  ASSERT_TRUE(mv.ok());
  EXPECT_FALSE(mv->stats.plan_cache_hit);
}

TEST_F(PipelineTest, AddViewInvalidatesCachedPlans) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  auto before = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(before.ok());
  const uint64_t version = engine_.catalog_version();

  // A new view that also answers the branch: the cached plan must not be
  // served after the catalog changes.
  ASSERT_TRUE(engine_.AddView(Parse("/r/s[f]/p")).ok());
  EXPECT_GT(engine_.catalog_version(), version);

  auto after = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->stats.plan_cache_hit);
  EXPECT_EQ(before->codes, after->codes);
  // The publish sweep dropped the plan eagerly — the new view's NFA admits
  // the plan's leaf paths — so the re-answer is a plain miss, not a lazy
  // stale drop.
  EXPECT_GE(engine_.plan_cache()->stats().fingerprint_invalidations, 1u);
  EXPECT_EQ(engine_.plan_cache()->stats().stale_drops, 0u);
}

TEST_F(PipelineTest, RemoveViewInvalidatesCachedPlans) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  auto extra = engine_.AddView(Parse("/r/s[f]/p"));
  ASSERT_TRUE(extra.ok());
  const TreePattern q = Parse("/r/s[f]/p");
  ASSERT_TRUE(
      engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered).ok());

  // May be the selected view of the plan.
  ASSERT_TRUE(engine_.RemoveView(*extra).ok());

  auto after = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->stats.plan_cache_hit);
  auto base = engine_.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(after->codes, base->codes);
}

TEST_F(PipelineTest, PlanCacheCapacityZeroDisablesCaching) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  Engine engine(SmallDoc(), options);
  auto q = engine.Parse("/r/s/p");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine.plan_cache(), nullptr);
  for (int i = 0; i < 2; ++i) {
    auto a = engine.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(a->stats.plan_cache_hit);
  }
}

TEST_F(PipelineTest, LruEvictsLeastRecentlyUsedPlan) {
  PlanCache cache(/*capacity=*/2);
  auto plan = [](uint64_t version) {
    auto p = std::make_shared<QueryPlan>();
    p->catalog_version = version;
    return std::shared_ptr<const QueryPlan>(std::move(p));
  };
  cache.Insert("a", plan(0));
  cache.Insert("b", plan(0));
  ASSERT_NE(cache.Lookup("a", 0), nullptr);  // refresh "a"
  cache.Insert("c", plan(0));                // evicts "b"
  EXPECT_NE(cache.Lookup("a", 0), nullptr);
  EXPECT_EQ(cache.Lookup("b", 0), nullptr);
  EXPECT_NE(cache.Lookup("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Version mismatch drops the entry.
  EXPECT_EQ(cache.Lookup("c", 1), nullptr);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// Regression: a plan-cache hit must not replay the cached plan's planning
// cost into this call's stats. Before the fix, filter/selection_micros were
// copied from the cached plan on every hit, so summing AnswerStats across
// repeated calls double-counted the planning work of the one miss.
TEST_F(PipelineTest, PlanCacheHitDoesNotReplayPlanningCost) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");

  auto first = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first->stats.plan_cache_hit);
  // The miss planned, so planning time is this call's work — and the plan
  // remembers the same cost under its own fields.
  EXPECT_GT(first->stats.filter_micros + first->stats.selection_micros, 0.0);
  EXPECT_EQ(first->stats.plan_filter_micros, first->stats.filter_micros);
  EXPECT_EQ(first->stats.plan_selection_micros,
            first->stats.selection_micros);

  auto second = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_TRUE(second->stats.plan_cache_hit);
  // The hit did no planning and reports none — exactly zero, not the cached
  // plan's cost.
  EXPECT_EQ(second->stats.filter_micros, 0.0);
  EXPECT_EQ(second->stats.selection_micros, 0.0);
  // The plan's build cost stays inspectable, under its own fields.
  EXPECT_EQ(second->stats.plan_filter_micros,
            first->stats.plan_filter_micros);
  EXPECT_EQ(second->stats.plan_selection_micros,
            first->stats.plan_selection_micros);
  // total covers exactly this call: lookup + execution, nothing replayed.
  EXPECT_GE(second->stats.total_micros, second->stats.execution_micros);
}

// Regression companion: per-call stats can only account for work that
// actually happened, so their sum over a run fits inside the measured wall
// time. Pre-fix, each hit re-reported the plan's filter/selection cost and
// the sum overshot the clock.
TEST_F(PipelineTest, SummedStatsStayWithinWallTime) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");

  const int64_t start_nanos = MonotonicNanos();
  double component_sum = 0;
  double total_sum = 0;
  for (int i = 0; i < 50; ++i) {
    auto a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(a.ok()) << a.status();
    component_sum += a->stats.filter_micros + a->stats.selection_micros +
                     a->stats.execution_micros;
    total_sum += a->stats.total_micros;
  }
  const double wall_micros =
      static_cast<double>(MonotonicNanos() - start_nanos) / 1e3;
  // Small slack for per-span clock-read rounding.
  EXPECT_LE(component_sum, wall_micros + 100.0);
  EXPECT_LE(total_sum, wall_micros + 100.0);
}

// Satellite invariant: every Lookup resolves to exactly one hit or one
// miss, every publish-swept entry to exactly one invalidation cause or a
// survival, and the lookups counter equals the number of cache-consulting
// calls — under catalog churn, exactly.
TEST_F(PipelineTest, PlanCacheStatsConsistentUnderChurn) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  const TreePattern q = Parse("/r/s[f]/p");
  ASSERT_NE(engine_.plan_cache(), nullptr);

  uint64_t answered = 0;
  auto answer = [&] {
    auto a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(a.ok()) << a.status();
    ++answered;
  };
  answer();  // prime the cache: one plain miss
  for (int round = 0; round < 5; ++round) {
    // Churn the catalog; the cached plan goes stale.
    auto id = engine_.AddView(Parse("/r/s[f]/p"));
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(engine_.RemoveView(*id).ok());
    answer();  // miss: the add's sweep dropped the entry eagerly
    answer();  // hit
    answer();  // hit
  }

  const PlanCache::Stats stats = engine_.plan_cache()->stats();
  EXPECT_EQ(stats.lookups, answered);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  // The new view answers the cached query's branch, so each add drops the
  // entry by fingerprint at publish time; by the time the remove sweeps,
  // the cache is already empty — and no lookup ever sees a stale entry.
  EXPECT_EQ(stats.stale_drops, 0u);
  EXPECT_EQ(stats.fingerprint_invalidations, 5u);
  EXPECT_EQ(stats.dep_invalidations, 0u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.hits, 10u);
  EXPECT_DOUBLE_EQ(stats.HitRatio(),
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.lookups));
  EXPECT_TRUE(ValidatePlanCacheStats(stats).ok());
}

// Targeted invalidation: removing a view drops exactly the entries whose
// positive dependency set contains it; everything else is re-stamped and
// keeps hitting with no replan.
TEST_F(PipelineTest, RemoveViewDropsExactlyDependentEntries) {
  auto v1 = engine_.AddView(Parse("/r/s/p"));
  auto v2 = engine_.AddView(Parse("/r/s/f"));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  const TreePattern q1 = Parse("/r/s/p");
  const TreePattern q2 = Parse("/r/s/f");
  ASSERT_TRUE(
      engine_.AnswerQuery(q1, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_TRUE(
      engine_.AnswerQuery(q2, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_NE(engine_.plan_cache(), nullptr);
  ASSERT_EQ(engine_.plan_cache()->size(), 2u);

  // v2 backs only q2's plan (it is not even a VFILTER candidate for q1),
  // so the publish sweep drops exactly that entry.
  ASSERT_TRUE(engine_.RemoveView(*v2).ok());
  EXPECT_EQ(engine_.plan_cache()->size(), 1u);
  const PlanCache::Stats stats = engine_.plan_cache()->stats();
  EXPECT_EQ(stats.dep_invalidations, 1u);
  EXPECT_EQ(stats.fingerprint_invalidations, 0u);
  EXPECT_EQ(stats.survived_publications, 1u);

  auto again = engine_.AnswerQuery(q1, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->stats.plan_cache_hit);
}

// Negative caching: a NOT_ANSWERABLE verdict is cached as a tombstone,
// hits without replanning, survives removals and unrelated additions (the
// per-path label bloom rejects them), and is retired exactly when a view
// that admits one of the query's leaf paths is published.
TEST_F(PipelineTest, NotAnswerableTombstoneFollowsTheFingerprint) {
  auto unrelated = engine_.AddView(Parse("/r/s/f"));
  ASSERT_TRUE(unrelated.ok());
  const TreePattern q = Parse("/r/s/p");

  auto first = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kNotAnswerable);
  ASSERT_NE(engine_.plan_cache(), nullptr);
  EXPECT_EQ(engine_.plan_cache()->size(), 1u);  // the tombstone

  auto second = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kNotAnswerable);
  EXPECT_EQ(engine_.plan_cache()->stats().hits, 1u);  // negative hit

  // Removals can never make an unanswerable query answerable, so the
  // tombstone survives every RemoveView.
  ASSERT_TRUE(engine_.RemoveView(*unrelated).ok());
  EXPECT_EQ(engine_.plan_cache()->size(), 1u);
  EXPECT_EQ(engine_.plan_cache()->stats().survived_publications, 1u);

  // An addition whose labels ('f') do not all appear in the query: the
  // label bloom proves no homomorphism is possible; the tombstone stays.
  auto readded = engine_.AddView(Parse("/r/s/f"));
  ASSERT_TRUE(readded.ok());
  EXPECT_EQ(engine_.plan_cache()->size(), 1u);
  EXPECT_EQ(engine_.plan_cache()->stats().fingerprint_invalidations, 0u);

  // An addition whose NFA admits the query's one leaf path: the verdict
  // may have flipped, so the tombstone is dropped at publish time...
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  EXPECT_EQ(engine_.plan_cache()->size(), 0u);
  EXPECT_EQ(engine_.plan_cache()->stats().fingerprint_invalidations, 1u);

  // ...and the query now answers from views, matching the base engine.
  auto after = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(after.ok()) << after.status();
  auto base = engine_.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(after->codes, base->codes);
}

// Eager sweep under capacity pressure: invalidated entries free their slot
// at publish time, so a later insert fills the freed slot instead of
// evicting an innocent (still-valid) plan.
TEST_F(PipelineTest, PublishSweepFreesCapacityEagerly) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine engine(SmallDoc(), options);
  auto parse = [&](const std::string& xpath) {
    auto r = engine.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  };
  ASSERT_TRUE(engine.AddView(parse("/r/s/p")).ok());
  auto v2 = engine.AddView(parse("/r/s/f"));
  ASSERT_TRUE(v2.ok());
  const TreePattern q1 = parse("/r/s/p");
  const TreePattern q2 = parse("/r/s/f");
  ASSERT_TRUE(
      engine.AnswerQuery(q1, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_TRUE(
      engine.AnswerQuery(q2, AnswerStrategy::kHeuristicFiltered).ok());
  ASSERT_EQ(engine.plan_cache()->size(), 2u);  // at capacity

  // The sweep frees q2's slot immediately — no lookup needed.
  ASSERT_TRUE(engine.RemoveView(*v2).ok());
  EXPECT_EQ(engine.plan_cache()->size(), 1u);

  // A third plan lands in the freed slot; q1's surviving entry is not
  // evicted and still hits. Pre-sweep, the dead q2 entry would have held
  // its slot and this insert would have evicted q1 (the LRU tail).
  ASSERT_TRUE(engine.AnswerQuery(q1, AnswerStrategy::kBaseNodeIndex).ok());
  EXPECT_EQ(engine.plan_cache()->size(), 2u);
  EXPECT_EQ(engine.plan_cache()->stats().evictions, 0u);
  auto hit = engine.AnswerQuery(q1, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->stats.plan_cache_hit);
}

// A racing insert of a plan built against a pre-sweep catalog is refused:
// it would let a stale plan dodge the publish sweep. A degraded plan is
// admitted like any other (its degradation depends on the query alone).
TEST_F(PipelineTest, InsertRejectsPreSweepPlans) {
  PlanCache cache(/*capacity=*/4);
  auto degraded = std::make_shared<QueryPlan>();
  degraded->plan_stats.degraded_selection = true;
  cache.Insert("d", std::move(degraded));
  EXPECT_EQ(cache.size(), 1u);

  cache.OnCatalogPublish(2, CatalogDelta::Full());
  auto pre_sweep = std::make_shared<QueryPlan>();
  pre_sweep->catalog_version = 1;
  cache.Insert("p", std::move(pre_sweep));
  EXPECT_EQ(cache.size(), 0u);

  auto fresh = std::make_shared<QueryPlan>();
  fresh->catalog_version = 2;
  cache.Insert("f", std::move(fresh));
  EXPECT_EQ(cache.size(), 1u);
}

// --- Threaded answering -----------------------------------------------------

class BatchTest : public ::testing::Test {
 protected:
  static constexpr size_t kNumQueries = 64;

  BatchTest() {
    XmarkOptions doc;
    doc.scale = 0.2;
    doc.seed = 42;
    setup_ = BuildPaperSetup(doc, /*num_views=*/40, /*seed=*/20080407);
    // A batch with repeats, so the plan cache sees both misses and hits.
    for (size_t i = 0; i < kNumQueries; ++i) {
      batch_.push_back(setup_.queries[i % setup_.queries.size()]);
    }
  }

  PaperSetup setup_;
  std::vector<TreePattern> batch_;
};

TEST_F(BatchTest, ConcurrentBatchMatchesSequentialForAllStrategies) {
  for (AnswerStrategy strategy : kAllAnswerStrategies) {
    // Sequential reference (fresh cache effects do not change answers).
    std::vector<std::vector<DeweyCode>> expected;
    for (const TreePattern& q : batch_) {
      auto answer = setup_.engine->AnswerQuery(q, strategy);
      ASSERT_TRUE(answer.ok())
          << AnswerStrategyName(strategy) << ": " << answer.status();
      expected.push_back(answer->codes);
    }
    auto results = AnswerOnThreads(*setup_.engine, batch_, strategy,
                                   /*num_threads=*/4);
    ASSERT_EQ(results.size(), batch_.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << AnswerStrategyName(strategy) << " query " << i << ": "
          << results[i].status();
      EXPECT_EQ(results[i]->codes, expected[i])
          << AnswerStrategyName(strategy) << " query " << i;
      EXPECT_TRUE(ValidateAnswerCodes(results[i]->codes).ok())
          << AnswerStrategyName(strategy) << " query " << i;
    }
  }
  // The concurrent runs left the shared catalog structures untouched.
  EXPECT_TRUE(ValidateVFilter(setup_.engine->vfilter()).ok());
  EXPECT_TRUE(ValidateFragmentStore(setup_.engine->fragments(),
                                    *setup_.engine->doc().fst(),
                                    [&](int32_t id) {
                                      return setup_.engine->view(id);
                                    })
                  .ok());
}

TEST_F(BatchTest, BatchSeesPlanCacheHitsOnRepeats) {
  ASSERT_NE(setup_.engine->plan_cache(), nullptr);
  auto results = AnswerOnThreads(*setup_.engine, batch_,
                                 AnswerStrategy::kHeuristicFiltered,
                                 /*num_threads=*/4);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  const PlanCache::Stats stats = setup_.engine->plan_cache()->stats();
  // Each distinct query plans at most a few times (racing threads may plan
  // the same query concurrently before the first insert lands); repeats hit.
  EXPECT_GE(stats.hits, kNumQueries / 2);
  EXPECT_GE(stats.misses, setup_.queries.size());
}

TEST_F(BatchTest, SequentialBatchEqualsThreadedBatch) {
  auto seq = AnswerOnThreads(*setup_.engine, batch_,
                             AnswerStrategy::kHeuristicFiltered,
                             /*num_threads=*/1);
  auto par = AnswerOnThreads(*setup_.engine, batch_,
                             AnswerStrategy::kHeuristicFiltered,
                             /*num_threads=*/4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].ok());
    ASSERT_TRUE(par[i].ok());
    EXPECT_EQ(seq[i]->codes, par[i]->codes) << "query " << i;
  }
}

// --- RemoveView resource release --------------------------------------------

TEST(RemoveViewRegression, HundredViewsFullyReleased) {
  XmarkOptions doc_options;
  doc_options.scale = 0.2;
  doc_options.seed = 42;
  Engine engine(GenerateXmark(doc_options));

  // Two permanent views as the baseline.
  auto keep1 = engine.Parse("/site/people/person/name");
  auto keep2 = engine.Parse("//person[profile/interest]/name");
  ASSERT_TRUE(keep1.ok());
  ASSERT_TRUE(keep2.ok());
  ASSERT_TRUE(engine.AddView(std::move(keep1).value()).ok());
  ASSERT_TRUE(engine.AddView(std::move(keep2).value()).ok());

  const size_t base_views = engine.num_views();
  const size_t base_bytes = engine.fragments().TotalByteSize();
  const size_t base_store_views = engine.fragments().num_views();
  const size_t base_filter_views = engine.vfilter().num_views();
  const size_t base_accepts = engine.vfilter().nfa().num_accept_entries();

  // Add 100 views and remove them all again.
  const std::vector<std::string> shapes = {
      "/site/people/person/name",
      "//person/profile/interest",
      "/site/open_auctions/open_auction/bidder",
      "//closed_auction/price",
      "/site/regions//item/name",
  };
  std::vector<int32_t> added;
  for (int i = 0; i < 100; ++i) {
    auto pattern = engine.Parse(shapes[static_cast<size_t>(i) % shapes.size()]);
    ASSERT_TRUE(pattern.ok());
    auto id = engine.AddView(std::move(pattern).value());
    ASSERT_TRUE(id.ok()) << id.status();
    added.push_back(*id);
  }
  EXPECT_EQ(engine.num_views(), base_views + 100);
  EXPECT_GT(engine.fragments().TotalByteSize(), base_bytes);
  EXPECT_GT(engine.vfilter().nfa().num_accept_entries(), base_accepts);

  for (int32_t id : added) {
    ASSERT_TRUE(engine.RemoveView(id).ok());
  }

  EXPECT_EQ(engine.num_views(), base_views);
  EXPECT_EQ(engine.fragments().num_views(), base_store_views);
  EXPECT_EQ(engine.fragments().TotalByteSize(), base_bytes);
  EXPECT_EQ(engine.vfilter().num_views(), base_filter_views);
  EXPECT_EQ(engine.vfilter().nfa().num_accept_entries(), base_accepts);
  for (int32_t id : added) {
    EXPECT_EQ(engine.view(id), nullptr);
    EXPECT_FALSE(engine.fragments().HasView(id));
  }

  // The engine still answers correctly from the remaining views.
  auto q = engine.Parse("/site/people/person[profile/interest]/name");
  ASSERT_TRUE(q.ok());
  auto hv = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
  auto bn = engine.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(hv.ok()) << hv.status();
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(hv->codes, bn->codes);
}

// AnswerQuery keeps one context per thread, but no pin past the call: once
// a publication replaces the snapshot it answered against and the caller
// drops its own reference, that snapshot is freed.
TEST_F(PipelineTest, AnswerQueryReleasesItsCatalogPin) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  const TreePattern q = Parse("/r/s/p");
  std::weak_ptr<const CatalogSnapshot> answered_against;
  {
    const CatalogRef local = engine_.Catalog();
    answered_against = local;
    auto answer = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  }
  EXPECT_TRUE(answered_against.expired());
}

// SelectViews runs on the same per-thread context and drops its pin the
// same way.
TEST_F(PipelineTest, SelectViewsReleasesItsCatalogPin) {
  ASSERT_TRUE(engine_.AddView(Parse("/r/s/p")).ok());
  const TreePattern q = Parse("/r/s/p");
  std::weak_ptr<const CatalogSnapshot> selected_against;
  {
    const CatalogRef local = engine_.Catalog();
    selected_against = local;
    AnswerStats stats;
    auto selection =
        engine_.SelectViews(q, AnswerStrategy::kHeuristicFiltered, &stats);
    ASSERT_TRUE(selection.ok()) << selection.status();
    ASSERT_TRUE(engine_.AddView(Parse("/r/s/f")).ok());
  }
  EXPECT_TRUE(selected_against.expired());
}

// One thread alternating between two engines (different documents and
// view counts, one per-thread context) gets each engine's own answer.
TEST(AnswerQueryContextTest, OneThreadAlternatesBetweenTwoEngines) {
  Engine small(SmallDoc());
  Engine large(LargerDoc());
  const auto add = [](Engine* engine, const std::string& xpath) {
    auto view = engine->Parse(xpath);
    ASSERT_TRUE(view.ok()) << view.status();
    ASSERT_TRUE(engine->AddView(std::move(view).value()).ok());
  };
  add(&small, "/r/s/p");
  add(&small, "/r/s/f");
  for (const char* xpath : {"/r/s/p", "/r/s/f", "//s[f]/p", "//p", "//s"}) {
    add(&large, xpath);
  }
  const std::vector<std::string> queries = {"/r/s[f]/p", "/r/s/p", "/r/s/f"};
  bool engines_differ = false;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& xpath : queries) {
      std::vector<std::vector<DeweyCode>> truths;
      for (Engine* engine : {&small, &large}) {
        auto q = engine->Parse(xpath);
        ASSERT_TRUE(q.ok()) << q.status();
        auto hv = engine->AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
        auto bn = engine->AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
        ASSERT_TRUE(hv.ok()) << xpath << ": " << hv.status();
        ASSERT_TRUE(bn.ok()) << xpath << ": " << bn.status();
        EXPECT_EQ(hv->codes, bn->codes) << xpath << " round " << round;
        truths.push_back(bn->codes);
      }
      engines_differ |= truths[0] != truths[1];
    }
  }
  EXPECT_TRUE(engines_differ);
}

// The arena gauges describe the engine's own calls, although the thread's
// one context (and arena) carries over from call to call and between
// engines: a call that skips the rewrite reports no footprint, and an
// engine that never rewrote reports no high-water mark.
TEST(AnswerQueryContextTest, ArenaGaugesArePerCallAndPerEngine) {
  Engine rewriting(LargerDoc());
  Engine base_only(SmallDoc());
  for (const char* xpath : {"/r/s/p", "//s[f]/p"}) {
    auto view = rewriting.Parse(xpath);
    ASSERT_TRUE(view.ok()) << view.status();
    ASSERT_TRUE(rewriting.AddView(std::move(view).value()).ok());
  }
  const auto gauge = [](const Engine& engine, const char* name) {
    return engine.metrics().GetGauge(name)->Value();
  };
  auto q = rewriting.Parse("/r/s[f]/p");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(
      rewriting.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered).ok());
  const int64_t footprint = gauge(rewriting, "xvr.arena.bytes_allocated");
  EXPECT_GT(footprint, 0);
  EXPECT_EQ(gauge(rewriting, "xvr.arena.high_water"), footprint);

  ASSERT_TRUE(rewriting.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex).ok());
  EXPECT_EQ(gauge(rewriting, "xvr.arena.bytes_allocated"), 0);
  EXPECT_EQ(gauge(rewriting, "xvr.arena.high_water"), footprint);

  auto base_q = base_only.Parse("/r/s/p");
  ASSERT_TRUE(base_q.ok()) << base_q.status();
  ASSERT_TRUE(
      base_only.AnswerQuery(*base_q, AnswerStrategy::kBaseNodeIndex).ok());
  EXPECT_EQ(gauge(base_only, "xvr.arena.bytes_allocated"), 0);
  EXPECT_EQ(gauge(base_only, "xvr.arena.high_water"), 0);
}

}  // namespace
}  // namespace xvr
