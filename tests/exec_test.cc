#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "exec/evaluator.h"
#include "pattern/evaluate.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = ParseXml(
        "<b>"
        "<s><t/><f n=\"1\"><i/></f><p/></s>"
        "<s><t/><p/><s><t/><p/><f n=\"2\"><i/></f></s></s>"
        "<a/><a/>"
        "</b>");
    ASSERT_TRUE(r.ok()) << r.status();
    tree_ = std::move(r).value();
    tree_.AssignDeweyCodes();
  }
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &tree_.labels());
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  XmlTree tree_;
};

TEST_F(ExecTest, IntervalsNestProperly) {
  TreeIntervals iv(tree_);
  for (size_t i = 0; i < tree_.size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    EXPECT_LT(iv.begin[i], iv.end[i]);
    for (NodeId c : tree_.Children(n)) {
      EXPECT_TRUE(iv.Contains(n, c));
      EXPECT_FALSE(iv.Contains(c, n));
    }
  }
}

TEST_F(ExecTest, NodeIndexListsAreDocumentOrdered) {
  NodeIndex index(tree_);
  const auto& ss = index.Nodes(tree_.labels().Find("s"));
  EXPECT_EQ(ss.size(), 3u);
  for (size_t i = 1; i < ss.size(); ++i) {
    EXPECT_TRUE(tree_.dewey(ss[i - 1]) < tree_.dewey(ss[i]));
  }
  EXPECT_TRUE(index.Nodes(kInvalidLabel).empty());
  EXPECT_GT(index.ByteSize(), 0u);
}

TEST_F(ExecTest, NodeIndexMatchesDirectEvaluation) {
  NodeIndex index(tree_);
  const std::vector<std::string> queries = {
      "/b/s",        "//s//t",     "/b/s[t]/p",  "//s[f/i][t]/p",
      "//f[@n = 2]", "/b/*",       "//*",        "/b/s/s",
      "/b[a]/s//p",  "//s[.//i]",  "/x",         "//s[x]",
  };
  for (const std::string& q : queries) {
    const TreePattern p = Parse(q);
    std::vector<NodeId> direct = EvaluatePattern(p, tree_);
    std::vector<NodeId> indexed = index.Evaluate(p);
    std::sort(indexed.begin(), indexed.end());
    EXPECT_EQ(indexed, direct) << q;
  }
}

TEST_F(ExecTest, PathIndexMatchesDirectEvaluation) {
  PathIndex index(tree_);
  EXPECT_GT(index.num_distinct_paths(), 4u);
  const std::vector<std::string> queries = {
      "/b/s",       "//s//t",    "/b/s[t]/p", "//s[f/i][t]/p",
      "/b/*",       "/b/s/s",    "//i",       "/b[a]/s//p",
      "//f[@n = 2]", "/x",
  };
  for (const std::string& q : queries) {
    const TreePattern p = Parse(q);
    std::vector<NodeId> direct = EvaluatePattern(p, tree_);
    std::vector<NodeId> indexed = index.Evaluate(p);
    std::sort(indexed.begin(), indexed.end());
    EXPECT_EQ(indexed, direct) << q;
  }
}

TEST_F(ExecTest, FullIndexIsBiggerThanNodeIndex) {
  BaseEvaluator eval(tree_);
  EXPECT_GT(eval.path_index().ByteSize(), eval.node_index().ByteSize());
}

TEST_F(ExecTest, EvaluatorFacade) {
  BaseEvaluator eval(tree_);
  const TreePattern p = Parse("//s/p");
  auto bn = eval.Evaluate(p, BaseStrategy::kNodeIndex);
  auto bf = eval.Evaluate(p, BaseStrategy::kFullIndex);
  std::sort(bn.begin(), bn.end());
  std::sort(bf.begin(), bf.end());
  EXPECT_EQ(bn, bf);
  EXPECT_EQ(bn.size(), 3u);
}

// Property sweep on a generated XMark document: both indexes agree with the
// direct evaluator on random generated queries.
TEST(ExecSweep, IndexedEvaluationAgreesOnXmark) {
  XmarkOptions doc_options;
  doc_options.scale = 0.15;
  doc_options.seed = 11;
  XmlTree tree = GenerateXmark(doc_options);
  BaseEvaluator eval(tree);
  QueryGenOptions gen_options;
  gen_options.max_depth = 4;
  gen_options.num_pred = 1;
  QueryGenerator generator(tree, gen_options);
  Rng rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const TreePattern q = generator.Generate(&rng);
    std::vector<NodeId> direct = EvaluatePattern(q, tree);
    std::vector<NodeId> bn = eval.Evaluate(q, BaseStrategy::kNodeIndex);
    std::vector<NodeId> bf = eval.Evaluate(q, BaseStrategy::kFullIndex);
    std::sort(bn.begin(), bn.end());
    std::sort(bf.begin(), bf.end());
    EXPECT_EQ(bn, direct);
    EXPECT_EQ(bf, direct);
  }
}

// The same check on recursive documents: alphabets of 2-4 labels repeat
// along root paths, so the structural joins meet candidates nested in
// other candidates, and frequent '*' and '//' steps exercise the child,
// parent and descendant filters on them.
TEST(ExecSweep, IndexedEvaluationAgreesOnRecursiveDocs) {
  size_t answered = 0;
  for (int alphabet = 2; alphabet <= 4; ++alphabet) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      RandomDocOptions doc_options;
      doc_options.seed = seed * 10 + static_cast<uint64_t>(alphabet);
      doc_options.num_nodes = 300;
      doc_options.alphabet_size = alphabet;
      XmlTree tree = GenerateRandomDoc(doc_options);
      BaseEvaluator eval(tree);
      QueryGenOptions gen_options;
      gen_options.max_depth = 4;
      gen_options.prob_wild = 0.4;
      gen_options.prob_desc = 0.5;
      gen_options.num_pred = 2;
      gen_options.num_nestedpath = 2;
      gen_options.prob_attr = 0.1;
      QueryGenerator generator(tree, gen_options);
      Rng rng(seed);
      for (int trial = 0; trial < 40; ++trial) {
        const TreePattern q = generator.Generate(&rng);
        const std::vector<NodeId> direct = EvaluatePattern(q, tree);
        std::vector<NodeId> bn = eval.Evaluate(q, BaseStrategy::kNodeIndex);
        std::vector<NodeId> bf = eval.Evaluate(q, BaseStrategy::kFullIndex);
        std::sort(bn.begin(), bn.end());
        std::sort(bf.begin(), bf.end());
        const std::string xpath = PatternToXPath(q, tree.labels());
        EXPECT_EQ(bn, direct) << xpath << " (alphabet " << alphabet << ")";
        EXPECT_EQ(bf, direct) << xpath << " (alphabet " << alphabet << ")";
        answered += direct.empty() ? 0 : 1;
      }
    }
  }
  // Most generated queries have answers, so the sweep compares real sets.
  EXPECT_GT(answered, 180u);
}

}  // namespace
}  // namespace xvr
