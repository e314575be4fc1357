#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/engine.h"
#include "pattern/containment.h"
#include "pattern/evaluate.h"
#include "pattern/homomorphism.h"
#include "pattern/normalize.h"
#include "pattern/pattern_writer.h"
#include "vfilter/vfilter.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Property 1 (the headline end-to-end invariant): for random view sets and
// random queries over an XMark document, whenever selection succeeds the
// multi-view rewriting equals direct evaluation on the base data.

struct EndToEndParams {
  uint64_t seed;
  int num_views;
  int num_queries;
};

class EndToEndSweep : public ::testing::TestWithParam<EndToEndParams> {};

TEST_P(EndToEndSweep, RewritingMatchesDirectEvaluation) {
  const EndToEndParams params = GetParam();
  XmarkOptions doc_options;
  doc_options.scale = 0.12;
  doc_options.seed = params.seed;
  Engine engine(GenerateXmark(doc_options));

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(params.seed * 31 + 1);

  int added = 0;
  int attempts = 0;
  while (added < params.num_views && attempts < params.num_views * 50) {
    ++attempts;
    if (engine.AddView(generator.Generate(&rng)).ok()) {
      ++added;
    }
  }
  ASSERT_GT(added, 0);

  int answered = 0;
  for (int i = 0; i < params.num_queries; ++i) {
    const TreePattern query = generator.Generate(&rng);
    auto hv = engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
    auto mv = engine.AnswerQuery(query, AnswerStrategy::kMinimumFiltered);
    // Both strategies agree on answerability.
    ASSERT_EQ(hv.ok(), mv.ok())
        << PatternToXPath(query, engine.labels()) << " hv=" << hv.status()
        << " mv=" << mv.status();
    if (!hv.ok()) {
      ASSERT_EQ(hv.status().code(), StatusCode::kNotAnswerable)
          << hv.status();
      continue;
    }
    ++answered;
    auto direct = engine.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(hv->codes, direct->codes)
        << "HV mismatch for " << PatternToXPath(query, engine.labels());
    EXPECT_EQ(mv->codes, direct->codes)
        << "MV mismatch for " << PatternToXPath(query, engine.labels());
  }
  // The sweep should answer a reasonable share of queries (views and
  // queries come from the same generator).
  EXPECT_GT(answered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EndToEndSweep,
    ::testing::Values(EndToEndParams{101, 60, 40},
                      EndToEndParams{202, 60, 40},
                      EndToEndParams{303, 120, 40},
                      EndToEndParams{404, 120, 40}));

// A heavier configuration closer to the bench scale: larger document, more
// views, all five view strategies cross-checked.
TEST(EndToEndHeavy, AllStrategiesMatchDirectEvaluation) {
  XmarkOptions doc_options;
  doc_options.scale = 0.6;
  doc_options.seed = 71;
  Engine engine(GenerateXmark(doc_options));
  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(72);
  int added = 0;
  for (int attempts = 0; added < 250 && attempts < 12000; ++attempts) {
    if (engine.AddView(generator.Generate(&rng)).ok()) {
      ++added;
    }
  }
  ASSERT_GT(added, 100);
  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    const TreePattern query = generator.Generate(&rng);
    auto hv = engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
    if (!hv.ok()) {
      continue;
    }
    ++answered;
    auto direct = engine.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(direct.ok());
    for (AnswerStrategy s :
         {AnswerStrategy::kMinimumNoFilter, AnswerStrategy::kMinimumFiltered}) {
      auto other = engine.AnswerQuery(query, s);
      ASSERT_TRUE(other.ok())
          << AnswerStrategyName(s) << " failed where HV succeeded: "
          << PatternToXPath(query, engine.labels());
      EXPECT_EQ(other->codes, direct->codes) << AnswerStrategyName(s);
    }
    EXPECT_EQ(hv->codes, direct->codes)
        << PatternToXPath(query, engine.labels());
  }
  EXPECT_GT(answered, 5);
}

// Same end-to-end invariant with attribute predicates in the views and
// queries; VFILTER ignores them, and selection and rewriting must not.
TEST(EndToEndAttributes, RewritingMatchesDirectEvaluation) {
  XmarkOptions doc_options;
  doc_options.scale = 0.12;
  doc_options.seed = 17;
  Engine engine(GenerateXmark(doc_options));

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 2;
  gen_options.prob_attr = 0.4;
  QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(18);

  int added = 0;
  for (int attempts = 0; added < 80 && attempts < 4000; ++attempts) {
    if (engine.AddView(generator.Generate(&rng)).ok()) {
      ++added;
    }
  }
  ASSERT_GT(added, 0);

  int answered = 0;
  for (int i = 0; i < 60; ++i) {
    const TreePattern query = generator.Generate(&rng);
    auto hv = engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
    if (!hv.ok()) {
      ASSERT_EQ(hv.status().code(), StatusCode::kNotAnswerable);
      continue;
    }
    ++answered;
    auto direct = engine.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(hv->codes, direct->codes)
        << PatternToXPath(query, engine.labels());
  }
  EXPECT_GT(answered, 0);
}

// ---------------------------------------------------------------------------
// Property 2: VFILTER never filters a view that has a homomorphism to the
// query (Proposition 3.1 + normalization, §III-C and §III-D).

class FilterSoundnessSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterSoundnessSweep, NoFalseNegatives) {
  XmarkOptions doc_options;
  doc_options.scale = 0.08;
  doc_options.seed = GetParam();
  XmlTree doc = GenerateXmark(doc_options);

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  gen_options.num_nestedpath = 2;
  gen_options.prob_wild = 0.3;
  gen_options.prob_desc = 0.3;
  QueryGenerator generator(doc, gen_options);
  Rng rng(GetParam() * 7 + 3);

  std::vector<TreePattern> views;
  VFilter filter;
  for (int i = 0; i < 150; ++i) {
    views.push_back(generator.Generate(&rng));
    filter.AddView(i, views.back());
  }
  // High-fanout states read through dense dispatch tables, so the sweep
  // covers both dispatch forms.
  ASSERT_GT(filter.nfa().num_dense_states(), 0u);

  int containments = 0;
  for (int i = 0; i < 50; ++i) {
    const TreePattern query = generator.Generate(&rng);
    const FilterResult result = filter.Filter(query);
    for (size_t v = 0; v < views.size(); ++v) {
      if (ExistsHomomorphism(views[v], query)) {
        ++containments;
        EXPECT_NE(std::find(result.candidates.begin(),
                            result.candidates.end(), static_cast<int32_t>(v)),
                  result.candidates.end())
            << "view " << PatternToXPath(views[v], doc.labels())
            << " dropped for query " << PatternToXPath(query, doc.labels());
      }
    }
  }
  EXPECT_GT(containments, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterSoundnessSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// ---------------------------------------------------------------------------
// Adversarial documents: tiny alphabets make every label repeat along root
// paths, stressing ambiguous anchor assignments in the join and crowded
// homomorphism image sets. Same invariants as above.

// The padding is a zeroed member so the case ids ctest takes from gtest's
// byte dump of the parameter are the same in every run.
struct RandomDocParams {
  uint64_t seed;
  int alphabet;
  int32_t padding = 0;
};
static_assert(sizeof(RandomDocParams) == 16,
              "RandomDocParams has unnamed padding");

class RandomDocSweep : public ::testing::TestWithParam<RandomDocParams> {};

TEST_P(RandomDocSweep, EndToEndAndFilterInvariants) {
  RandomDocOptions doc_options;
  doc_options.seed = GetParam().seed;
  doc_options.alphabet_size = GetParam().alphabet;
  doc_options.num_nodes = 350;
  Engine engine(GenerateRandomDoc(doc_options));

  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  gen_options.prob_wild = 0.25;
  gen_options.prob_desc = 0.3;
  QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(GetParam().seed * 13 + 5);

  std::vector<TreePattern> views;
  int added = 0;
  for (int attempts = 0; added < 60 && attempts < 2500; ++attempts) {
    TreePattern v = generator.Generate(&rng);
    views.push_back(v);
    if (engine.AddView(std::move(v)).ok()) {
      ++added;
    } else {
      views.pop_back();
    }
  }
  ASSERT_GT(added, 0);

  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    const TreePattern query = generator.Generate(&rng);
    // Filter soundness vs homomorphism.
    const FilterResult filtered = engine.vfilter().Filter(query);
    for (size_t v = 0; v < views.size(); ++v) {
      if (ExistsHomomorphism(views[v], query)) {
        EXPECT_TRUE(std::find(filtered.candidates.begin(),
                              filtered.candidates.end(),
                              static_cast<int32_t>(v)) !=
                    filtered.candidates.end())
            << PatternToXPath(views[v], engine.labels()) << " dropped for "
            << PatternToXPath(query, engine.labels());
      }
    }
    // End-to-end equality.
    auto hv = engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
    if (!hv.ok()) {
      continue;
    }
    ++answered;
    auto direct = engine.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(hv->codes, direct->codes)
        << PatternToXPath(query, engine.labels());
  }
  EXPECT_GT(answered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomDocSweep,
    ::testing::Values(RandomDocParams{1, 2}, RandomDocParams{2, 3},
                      RandomDocParams{3, 4}, RandomDocParams{4, 2},
                      RandomDocParams{5, 3}, RandomDocParams{6, 6}));

// ---------------------------------------------------------------------------
// Property 3: normalization never changes a path pattern's result set on
// real documents.

TEST(NormalizationProperty, ResultSetsPreservedOnXmark) {
  XmarkOptions doc_options;
  doc_options.scale = 0.08;
  XmlTree doc = GenerateXmark(doc_options);
  QueryGenOptions gen_options;
  gen_options.max_depth = 5;
  gen_options.num_pred = 0;
  gen_options.prob_wild = 0.5;
  gen_options.prob_desc = 0.4;
  QueryGenerator generator(doc, gen_options);
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    const TreePattern q = generator.Generate(&rng);
    const Decomposition d = Decompose(q);
    ASSERT_EQ(d.paths.size(), 1u);
    const TreePattern normalized =
        NormalizePath(d.paths[0]).ToTreePattern();
    EXPECT_EQ(EvaluatePattern(q, doc), EvaluatePattern(normalized, doc))
        << PatternToXPath(q, doc.labels()) << " vs "
        << PatternToXPath(normalized, doc.labels());
  }
}

// ---------------------------------------------------------------------------
// Property 4: every leaf cover the selectors rely on is justified — if a
// view's cover claims Δ plus all leaves, the single view must answer the
// query exactly (spot-checked end to end).

TEST(LeafCoverProperty, FullCoverSingleViewAnswersExactly) {
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  Engine engine(GenerateXmark(doc_options));
  QueryGenOptions gen_options;
  QueryGenerator generator(engine.doc(), gen_options);
  Rng rng(88);
  int checked = 0;
  for (int i = 0; i < 200 && checked < 25; ++i) {
    TreePattern view = generator.Generate(&rng);
    auto id = engine.AddView(std::move(view));
    if (!id.ok()) {
      continue;
    }
    // Query = the view itself (guaranteed full cover).
    const TreePattern& query = *engine.view(*id);
    auto hv = engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(hv.ok()) << hv.status();
    auto direct = engine.AnswerQuery(query, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(hv->codes, direct->codes);
    ++checked;
  }
  EXPECT_GE(checked, 25);
}

// --- containment test agreement (§II vs §IV completeness boundary) ---------
//
// The homomorphism DP is sound on all of XP{/,//,*,[]} and complete on the
// wildcard-free fragment XP{/,//,[]}. The canonical-model test is complete
// outright. (Completeness does NOT extend to path containers with
// wildcards: //*/a contains /b[.//a/b]//c but admits no homomorphism — a
// sweep over that shape is what caught the original rung-3 bug in
// DecideContainment.) So over randomized pred-free XP{/,//,*} pairs:
//
//   * any pair: hom says contained  ⇒  canonical says contained (soundness);
//   * wildcard-free pair: the two tests must AGREE exactly — a
//     disagreement is a bug in one of them;
//   * any pred-free pair within the descendant-edge budget:
//     DecideContainment must never return kUnknown, and its verdict must
//     match the canonical truth (rungs 1/2 sound hits, rung 3 complete
//     refutation, rung 4 exact).

namespace {

LabelId RandomLabel(Rng* rng, const std::vector<LabelId>& alphabet,
                    double prob_wild) {
  if (rng->NextBool(prob_wild)) {
    return kWildcardLabel;
  }
  return alphabet[rng->NextBounded(alphabet.size())];
}

Axis RandomAxis(Rng* rng, double prob_desc) {
  return rng->NextBool(prob_desc) ? Axis::kDescendant : Axis::kChild;
}

// A random chain (path) pattern of 1..max_len nodes, answer at the end.
TreePattern RandomChainPattern(Rng* rng, const std::vector<LabelId>& alphabet,
                               int max_len, double prob_wild,
                               double prob_desc) {
  TreePattern p;
  TreePattern::NodeIndex cur =
      p.AddRoot(RandomLabel(rng, alphabet, prob_wild), RandomAxis(rng, prob_desc));
  const int len = 1 + static_cast<int>(rng->NextBounded(
                          static_cast<uint64_t>(max_len)));
  for (int i = 1; i < len; ++i) {
    cur = p.AddChild(cur, RandomAxis(rng, prob_desc),
                     RandomLabel(rng, alphabet, prob_wild));
  }
  p.SetAnswer(cur);
  return p;
}

// A random tree pattern: each new node attaches to a uniformly chosen
// existing node, so branching arises naturally.
TreePattern RandomTreeShapedPattern(Rng* rng,
                                    const std::vector<LabelId>& alphabet,
                                    int max_nodes, double prob_wild,
                                    double prob_desc) {
  TreePattern p;
  p.AddRoot(RandomLabel(rng, alphabet, prob_wild), RandomAxis(rng, prob_desc));
  const int n = 1 + static_cast<int>(rng->NextBounded(
                        static_cast<uint64_t>(max_nodes)));
  for (int i = 1; i < n; ++i) {
    const auto parent = static_cast<TreePattern::NodeIndex>(
        rng->NextBounded(static_cast<uint64_t>(p.size())));
    p.AddChild(parent, RandomAxis(rng, prob_desc),
               RandomLabel(rng, alphabet, prob_wild));
  }
  p.SetAnswer(static_cast<TreePattern::NodeIndex>(
      rng->NextBounded(static_cast<uint64_t>(p.size()))));
  return p;
}

}  // namespace

TEST(ContainmentAgreementProperty, HomSoundEverywhereAndLadderMatchesTruth) {
  LabelDict dict;
  const std::vector<LabelId> alphabet = {dict.Intern("a"), dict.Intern("b"),
                                         dict.Intern("c")};
  Rng rng(20260810);
  int contained = 0;
  int refuted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Half the trials use a path container (the certifier's common case),
    // half a tree-shaped one.
    const TreePattern container =
        (trial % 2 == 0)
            ? RandomChainPattern(&rng, alphabet, /*max_len=*/4,
                                 /*prob_wild=*/0.3, /*prob_desc=*/0.3)
            : RandomTreeShapedPattern(&rng, alphabet, /*max_nodes=*/4,
                                      /*prob_wild=*/0.3, /*prob_desc=*/0.3);
    const TreePattern containee = RandomTreeShapedPattern(
        &rng, alphabet, /*max_nodes=*/4, /*prob_wild=*/0.3, /*prob_desc=*/0.3);

    // Soundness on the raw pair: a homomorphism is always a proof.
    const bool truth = ContainsCanonical(container, containee, &dict);
    if (ContainsByHomomorphism(container, containee)) {
      EXPECT_TRUE(truth) << "hom found on non-contained pair:\n  container "
                         << PatternToXPath(container, dict) << "\n  containee "
                         << PatternToXPath(containee, dict);
    }

    // The escalation ladder must be decisive on pred-free pairs within the
    // descendant budget, and its verdict must equal the exact truth.
    bool escalated = false;
    const ContainmentVerdict verdict =
        DecideContainment(container, containee, &dict,
                          /*max_canonical_desc_edges=*/10, &escalated);
    ASSERT_NE(verdict, ContainmentVerdict::kUnknown)
        << PatternToXPath(container, dict) << " vs "
        << PatternToXPath(containee, dict);
    EXPECT_EQ(verdict == ContainmentVerdict::kContained, truth)
        << "ladder verdict " << ContainmentVerdictName(verdict)
        << " disagrees with canonical truth:\n  container "
        << PatternToXPath(container, dict) << "\n  containee "
        << PatternToXPath(containee, dict);
    if (truth) {
      ++contained;
    } else {
      ++refuted;
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(contained, 10);
  EXPECT_GT(refuted, 10);
}

TEST(ContainmentAgreementProperty, WildcardFreeHomAgreesWithCanonical) {
  LabelDict dict;
  const std::vector<LabelId> alphabet = {dict.Intern("a"), dict.Intern("b")};
  Rng rng(8102026);
  int contained = 0;
  int refuted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // prob_wild = 0: XP{/,//,[]}, where the homomorphism DP is complete.
    const TreePattern container = RandomTreeShapedPattern(
        &rng, alphabet, /*max_nodes=*/4, /*prob_wild=*/0.0, /*prob_desc=*/0.35);
    const TreePattern containee = RandomTreeShapedPattern(
        &rng, alphabet, /*max_nodes=*/5, /*prob_wild=*/0.0, /*prob_desc=*/0.35);
    const bool hom = ContainsByHomomorphism(container, containee);
    const bool truth = ContainsCanonical(container, containee, &dict);
    EXPECT_EQ(hom, truth)
        << "hom DP and canonical models disagree on a wildcard-free pair:\n"
        << "  container " << PatternToXPath(container, dict)
        << "\n  containee " << PatternToXPath(containee, dict);
    if (truth) {
      ++contained;
    } else {
      ++refuted;
    }
  }
  EXPECT_GT(contained, 10);
  EXPECT_GT(refuted, 10);
}

}  // namespace
}  // namespace xvr
