// Tests for the static plan certifier (analysis/certify.h).
//
// Acceptance: every plan the planner actually emits — fresh, cached, base,
// degraded — certifies green. Rejection: each seeded plan
// corruption (drop a cover leaf, weaken a refinement predicate, swap the
// extraction pattern, substitute a non-containing view, corrupt the
// recorded homomorphism, ...) must be rejected with a finding naming the
// failed check. These corruptions model real bug classes: a selection bug
// over-claiming a cover, a cached plan whose hoisted artifacts drifted, a
// catalog whose view changed under a stale plan.

#include "analysis/certify.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/pipeline.h"
#include "core/planner.h"
#include "workload/xmark.h"

namespace xvr {
namespace {

XmlTree SmallXmark() {
  XmarkOptions options;
  options.scale = 0.2;
  return GenerateXmark(options);
}

// One engine + one genuinely planned query, with everything a corruption
// test needs to mutate: the plan is a value copy, so tests deface it freely
// while the catalog stays pristine.
struct PlanFixture {
  std::unique_ptr<Engine> engine;
  CatalogRef catalog;
  std::vector<int32_t> view_ids;
  QueryPlan plan;
  bool ok = false;
};

PlanFixture MakePlan(const std::vector<std::string>& views,
                     const std::string& query,
                     AnswerStrategy strategy =
                         AnswerStrategy::kHeuristicFiltered) {
  PlanFixture f;
  f.engine = std::make_unique<Engine>(SmallXmark());
  for (const std::string& view : views) {
    Result<TreePattern> pattern = f.engine->Parse(view);
    if (!pattern.ok()) {
      ADD_FAILURE() << "parse " << view << ": " << pattern.status();
      return f;
    }
    Result<int32_t> id = f.engine->AddView(std::move(*pattern));
    if (!id.ok()) {
      ADD_FAILURE() << "add view " << view << ": " << id.status();
      return f;
    }
    f.view_ids.push_back(*id);
  }
  Result<TreePattern> pattern = f.engine->Parse(query);
  if (!pattern.ok()) {
    ADD_FAILURE() << "parse " << query << ": " << pattern.status();
    return f;
  }
  f.catalog = f.engine->Catalog();
  ExecutionContext ctx;
  Result<QueryPlan> plan = f.engine->planner().BuildPlan(
      *f.catalog, *pattern, strategy, &ctx.nfa_scratch);
  if (!plan.ok()) {
    ADD_FAILURE() << "plan " << query << ": " << plan.status();
    return f;
  }
  f.plan = std::move(*plan);
  f.ok = true;
  return f;
}

Certificate Certify(const PlanFixture& f) {
  CertifyOptions options;
  options.dict = &f.engine->doc().labels();
  return CertifyPlan(f.plan, f.catalog->MakeLookup(), options);
}

bool HasFinding(const Certificate& cert, const std::string& check) {
  for (const CertifyFinding& finding : cert.findings) {
    if (finding.check == check) {
      return true;
    }
  }
  return false;
}

// The workhorse fixtures. The structural one exercises branch covers; the
// predicate one puts a value predicate on the anchor so compensation
// corruption has something to weaken.
const char kStructView[] = "//person[profile/interest]/name";
const char kStructQuery[] = "/site/people/person[profile/interest]/name";
const char kPredView[] = "//person[@id = \"person0\"]/name";
const char kPredQuery[] = "/site/people/person[@id = \"person0\"]/name";

// --- acceptance -------------------------------------------------------------

TEST(CertifyAcceptTest, GenuinePlansCertifyUnderEveryViewStrategy) {
  for (const AnswerStrategy strategy :
       {AnswerStrategy::kMinimumNoFilter, AnswerStrategy::kMinimumFiltered,
        AnswerStrategy::kHeuristicFiltered,
        AnswerStrategy::kHeuristicSmallFragments}) {
    PlanFixture f = MakePlan({kStructView}, kStructQuery, strategy);
    ASSERT_TRUE(f.ok) << AnswerStrategyName(strategy);
    ASSERT_TRUE(f.plan.uses_views);
    const Certificate cert = Certify(f);
    EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified)
        << AnswerStrategyName(strategy) << ": " << cert.Summary();
    EXPECT_TRUE(cert.findings.empty()) << cert.Summary();
    EXPECT_NE(CertifyPlan(f.plan, f.catalog->MakeLookup()).verdict,
              CertifyVerdict::kRejected);
  }
}

TEST(CertifyAcceptTest, PredicatePlanCertifies) {
  PlanFixture f = MakePlan({kPredView}, kPredQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_TRUE(f.plan.uses_views);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified) << cert.Summary();
}

TEST(CertifyAcceptTest, BasePlanIsTriviallyCertified) {
  PlanFixture f = MakePlan({}, kStructQuery, AnswerStrategy::kBaseFullIndex);
  ASSERT_TRUE(f.ok);
  ASSERT_FALSE(f.plan.uses_views);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified);
  EXPECT_TRUE(cert.findings.empty());
}

TEST(CertifyAcceptTest, NullDictionaryStaysConclusiveOnHomDecidablePlans) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  const Certificate cert =
      CertifyPlan(f.plan, f.catalog->MakeLookup(), CertifyOptions{});
  EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified) << cert.Summary();
  EXPECT_EQ(cert.escalations, 0);
}

TEST(CertifyAcceptTest, CachedPlanRecertifies) {
  // Hoisted artifacts of a plan-cache hit are exactly what layer 2 guards;
  // a cached plan must certify as cleanly as the fresh build.
  Engine engine(SmallXmark());
  auto view = engine.Parse(kStructView);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(engine.AddView(std::move(*view)).ok());
  auto query = engine.Parse(kStructQuery);
  ASSERT_TRUE(query.ok());

  ExecutionContext ctx1;
  bool hit1 = true;
  auto first = engine.pipeline().Plan(*query, AnswerStrategy::kHeuristicFiltered,
                                      &ctx1, &hit1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit1);
  ExecutionContext ctx2;
  bool hit2 = false;
  auto second = engine.pipeline().Plan(
      *query, AnswerStrategy::kHeuristicFiltered, &ctx2, &hit2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit2);

  const CatalogRef catalog = engine.Catalog();
  CertifyOptions options;
  options.dict = &engine.doc().labels();
  const Certificate cert =
      CertifyPlan(**second, catalog->MakeLookup(), options);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified) << cert.Summary();
}

TEST(CertifyAcceptTest, RedundantDuplicateViewFlagsNonMinimal) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_EQ(f.plan.selection.views.size(), 1u);
  // A sound-but-wasteful plan: the same view selected twice. Everything
  // still verifies, so the verdict stays certified — with the waste flagged.
  f.plan.selection.views.push_back(f.plan.selection.views[0]);
  f.plan.compensation.views.push_back(f.plan.compensation.views[0]);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kCertified) << cert.Summary();
  EXPECT_TRUE(cert.non_minimal);
}

// --- seeded corruptions: every one must be rejected -------------------------

TEST(CertifyRejectTest, DroppedCoverLeaf) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  auto& leaves = f.plan.selection.views[0].cover.leaves;
  ASSERT_FALSE(leaves.empty());
  leaves.erase(leaves.begin());
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "cover")) << cert.Summary();
  EXPECT_EQ(CertifyPlan(f.plan, f.catalog->MakeLookup()).verdict,
            CertifyVerdict::kRejected);
}

TEST(CertifyRejectTest, DroppedAnswerClaim) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_TRUE(f.plan.selection.views[0].cover.covers_answer);
  f.plan.selection.views[0].cover.covers_answer = false;
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "cover")) << cert.Summary();
}

TEST(CertifyRejectTest, ClaimedNonLeafNode) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  // The query root has children, so claiming it as a covered leaf is a lie.
  ASSERT_FALSE(f.plan.query.node(f.plan.query.root()).children.empty());
  f.plan.selection.views[0].cover.leaves.push_back(f.plan.query.root());
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "cover")) << cert.Summary();
}

TEST(CertifyRejectTest, MappingImageWithWrongLabel) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  // Redirect the view root (label "person") onto the query root ("site").
  auto& mapping = f.plan.selection.views[0].cover.mapping;
  ASSERT_NE(mapping[0], f.plan.query.root());
  mapping[0] = f.plan.query.root();
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "mapping")) << cert.Summary();
}

TEST(CertifyRejectTest, MappingImageOutOfRange) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  f.plan.selection.views[0].cover.mapping[1] =
      static_cast<TreePattern::NodeIndex>(f.plan.query.size() + 5);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "mapping")) << cert.Summary();
}

TEST(CertifyRejectTest, TruncatedMapping) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  f.plan.selection.views[0].cover.mapping.pop_back();
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "structure")) << cert.Summary();
}

TEST(CertifyRejectTest, AnchorOutOfRange) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  f.plan.selection.views[0].cover.mapped_answer =
      static_cast<TreePattern::NodeIndex>(f.plan.query.size() + 7);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "structure")) << cert.Summary();
}

TEST(CertifyRejectTest, AnchorDisagreesWithMapping) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_NE(f.plan.selection.views[0].cover.mapped_answer,
            f.plan.query.root());
  f.plan.selection.views[0].cover.mapped_answer = f.plan.query.root();
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "structure")) << cert.Summary();
}

TEST(CertifyRejectTest, UnknownViewId) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  f.plan.selection.views[0].view_id = 7777;
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "structure")) << cert.Summary();
}

TEST(CertifyRejectTest, SubstitutedNonContainingView) {
  // Catalog drift: the plan's recorded witnesses were derived against
  // //person[@id="person0"]/name, but the id now resolves to a different
  // pattern — the recorded homomorphism cannot survive re-verification.
  PlanFixture f = MakePlan({kPredView, "//person/emailaddress"}, kPredQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_EQ(f.view_ids.size(), 2u);
  ASSERT_EQ(f.plan.selection.views.size(), 1u);
  ASSERT_EQ(f.plan.selection.views[0].view_id, f.view_ids[0]);
  f.plan.selection.views[0].view_id = f.view_ids[1];
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "structure") || HasFinding(cert, "mapping"))
      << cert.Summary();
}

TEST(CertifyRejectTest, ViewPredicateDriftedUnderStalePlan) {
  // The same drift class, value-predicate flavored: the catalog's view now
  // requires @id="person1" while the plan's witnesses assumed "person0".
  // The recorded mapping sends the view's predicate node onto a query node
  // whose predicate is no longer equal — the homomorphism axiom fails.
  PlanFixture f = MakePlan({kPredView}, kPredQuery);
  ASSERT_TRUE(f.ok);
  const TreePattern* original = f.catalog->view(f.plan.selection.views[0].view_id);
  ASSERT_NE(original, nullptr);
  TreePattern drifted = *original;
  bool changed = false;
  for (size_t i = 0; i < drifted.size(); ++i) {
    const auto n = static_cast<TreePattern::NodeIndex>(i);
    if (drifted.node(n).value_pred.has_value()) {
      ValuePredicate pred = *drifted.node(n).value_pred;
      pred.value = "person1";
      drifted.SetValuePredicate(n, pred);
      changed = true;
    }
  }
  ASSERT_TRUE(changed);
  CertifyOptions options;
  options.dict = &f.engine->doc().labels();
  const Certificate cert =
      CertifyPlan(f.plan, [&drifted](int32_t) { return &drifted; }, options);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "mapping")) << cert.Summary();
}

TEST(CertifyRejectTest, WeakenedRefinementPredicate) {
  // The view answers at interest, so the anchor is the query's predicated
  // interest node and the hoisted refinement carries its @category check.
  PlanFixture f =
      MakePlan({"//interest[@category = \"category0\"]"},
               "/site/people/person/profile/interest[@category = "
               "\"category0\"]");
  ASSERT_TRUE(f.ok);
  // The hoisted refinement re-checks @id="person0" at the anchor; silently
  // dropping it would let every person's fragment through.
  TreePattern& refinement = f.plan.compensation.views[0].refinement;
  bool weakened = false;
  for (size_t i = 0; i < refinement.size(); ++i) {
    const auto n = static_cast<TreePattern::NodeIndex>(i);
    if (refinement.node(n).value_pred.has_value()) {
      refinement.mutable_node(n).value_pred.reset();
      weakened = true;
    }
  }
  ASSERT_TRUE(weakened);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "compensation")) << cert.Summary();
}

TEST(CertifyRejectTest, WeakenedRefinementSubtree) {
  // The view answers at person, so the anchor sits above the whole
  // [profile/interest]/name region and the refinement is a real subtree.
  PlanFixture f = MakePlan({"//person[profile/interest]"}, kStructQuery);
  ASSERT_TRUE(f.ok);
  // Drop the [profile/interest] branch from the hoisted refinement: the
  // rewriter would stop re-checking the branch predicate entirely.
  TreePattern& refinement = f.plan.compensation.views[0].refinement;
  ASSERT_GT(refinement.size(), 2u);
  TreePattern::NodeIndex victim = TreePattern::kNoNode;
  for (size_t i = 0; i < refinement.size(); ++i) {
    const auto n = static_cast<TreePattern::NodeIndex>(i);
    if (n != refinement.root() && n != refinement.answer() &&
        !refinement.node(n).children.empty()) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, TreePattern::kNoNode);
  refinement.RemoveSubtree(victim);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "compensation")) << cert.Summary();
}

TEST(CertifyRejectTest, SwappedExtractionPattern) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_TRUE(f.plan.compensation.has_extraction);
  // Extraction built for the wrong node: the whole query instead of the
  // subtree at the primary anchor.
  TreePattern wrong = f.plan.query;
  ASSERT_NE(wrong.CanonicalKey(), f.plan.compensation.extraction.CanonicalKey());
  f.plan.compensation.extraction = std::move(wrong);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "compensation")) << cert.Summary();
}

TEST(CertifyRejectTest, MissingExtractionPattern) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  ASSERT_TRUE(f.plan.compensation.has_extraction);
  f.plan.compensation.has_extraction = false;
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "compensation")) << cert.Summary();
}

TEST(CertifyRejectTest, DroppedCompensationEntry) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  f.plan.compensation.views.clear();
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "compensation")) << cert.Summary();
}

TEST(CertifyRejectTest, UnmirroredPredicateAboveAnchor) {
  PlanFixture f = MakePlan({kStructView}, kStructQuery);
  ASSERT_TRUE(f.ok);
  // Sneak a value predicate onto a query node strictly above the anchor.
  // The rewriter only label-checks that region from Dewey codes, so an
  // unmirrored predicate there is silently unenforced — the certifier must
  // catch it.
  const TreePattern::NodeIndex q_star =
      f.plan.selection.views[0].cover.mapped_answer;
  const std::vector<TreePattern::NodeIndex> path =
      f.plan.query.PathFromRoot(q_star);
  ASSERT_GT(path.size(), 1u);
  ValuePredicate pred;
  pred.attribute = "id";
  pred.value = "nope";
  f.plan.query.SetValuePredicate(path[path.size() - 2], pred);
  const Certificate cert = Certify(f);
  EXPECT_EQ(cert.verdict, CertifyVerdict::kRejected) << cert.Summary();
  EXPECT_TRUE(HasFinding(cert, "anchor-path")) << cert.Summary();
}

}  // namespace
}  // namespace xvr
