// Differential and format tests for the hot-path memory architecture,
// each layer checked against an oracle that shares none of its code:
//
//   - flat-fragment layer: the anchored walks (epoched memo, preorder
//     subtree scans) against direct evaluation of the pattern on the
//     fragment's subtree, over randomized documents and generated patterns;
//     subtree_end/preorder structural invariants;
//   - serde: images round-trip byte-for-byte; images without the magic
//     marker, out of preorder, with duplicate side-table ids or with bytes
//     past their end are rejected; truncated images fail cleanly;
//   - VFILTER layer: no view with a homomorphism into the query is filtered
//     out of a catalog with dense-dispatch states, and serde keeps them;
//   - rewrite layer: HV and MV answers against BN (base evaluation, no
//     views) on generated queries the catalog answers, sequentially and on
//     four threads (arena-per-context under TSan); budgets; arena reuse
//     across a steady sequential stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "pattern/evaluate.h"
#include "pattern/homomorphism.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "storage/fragment.h"
#include "test_util.h"
#include "vfilter/vfilter.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// --- flat-fragment structural invariants + differential walks --------------

void CheckTopologyInvariants(const Fragment& frag) {
  const int32_t n = static_cast<int32_t>(frag.size());
  ASSERT_GT(n, 0);
  for (int32_t i = 0; i < n; ++i) {
    const FragmentNode& node = frag.node(i);
    if (i == 0) {
      EXPECT_EQ(node.parent, -1);
    } else {
      // Preorder: every parent precedes its children.
      EXPECT_GE(node.parent, 0);
      EXPECT_LT(node.parent, i);
    }
    // Preorder contiguity: the subtree of i is exactly [i, subtree_end(i)).
    EXPECT_GT(frag.subtree_end(i), i);
    EXPECT_LE(frag.subtree_end(i), n);
    if (i > 0) {
      EXPECT_LE(frag.subtree_end(i), frag.subtree_end(node.parent));
    }
    // Children by subtree jumps: each names i as its parent, and their
    // Dewey components ascend (document order).
    int32_t prev = -1;
    for (int32_t c = i + 1; c < frag.subtree_end(i); c = frag.subtree_end(c)) {
      EXPECT_EQ(frag.node(c).parent, i);
      if (prev >= 0) {
        EXPECT_GT(frag.node(c).dewey_component,
                  frag.node(prev).dewey_component)
            << "children must come in document order";
      }
      prev = c;
    }
  }
}

// The subtree of `tree` rooted at `root` as a document of its own, with the
// same label ids. Nodes are created in preorder, so node ids equal the
// indices of Fragment::FromTree(tree, root).
XmlTree SubtreeDocument(const XmlTree& tree, NodeId root) {
  XmlTree out;
  std::vector<std::pair<NodeId, NodeId>> stack = {{root, kNullNode}};
  while (!stack.empty()) {
    const auto [tn, parent] = stack.back();
    stack.pop_back();
    const NodeId copy = parent == kNullNode
                            ? out.CreateRoot(tree.label(tn))
                            : out.AppendChild(parent, tree.label(tn));
    if (const std::string* text = tree.text(tn)) {
      out.SetText(copy, *text);
    }
    if (const auto* attrs = tree.attributes(tn)) {
      for (const XmlAttribute& a : *attrs) {
        out.AddAttribute(copy, a.name, a.value);
      }
    }
    const std::vector<NodeId> children = tree.Children(tn);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.emplace_back(*it, copy);
    }
  }
  return out;
}

class FlatFragmentRandomTest : public ::testing::TestWithParam<uint64_t> {};

// The anchored walks against direct evaluation: the pattern, anchored at
// the document root, evaluated on the fragment's subtree as a document.
TEST_P(FlatFragmentRandomTest, ScratchWalksMatchLegacyWalks) {
  RandomDocOptions doc_options;
  doc_options.seed = GetParam();
  doc_options.num_nodes = 300;
  doc_options.alphabet_size = 3;  // dense label reuse -> deep embeddings
  doc_options.attr_probability = 0.3;
  doc_options.text_probability = 0.2;
  const XmlTree tree = GenerateRandomDoc(doc_options);

  QueryGenOptions gen_options;
  gen_options.max_depth = 3;
  gen_options.prob_wild = 0.3;
  gen_options.prob_desc = 0.3;
  gen_options.num_pred = 2;
  gen_options.prob_attr = 0.2;
  const QueryGenerator generator(tree, gen_options);

  Rng rng(GetParam() * 31 + 1);
  FragmentScratch scratch;  // deliberately shared across every trial
  int matched = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId root =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(tree.size())));
    const Fragment frag = Fragment::FromTree(tree, root);
    CheckTopologyInvariants(frag);
    const XmlTree subtree = SubtreeDocument(tree, root);
    ASSERT_EQ(subtree.size(), frag.size());
    for (int q = 0; q < 12; ++q) {
      const TreePattern generated = generator.Generate(&rng);
      const TreePattern pattern = generated.SubtreePattern(generated.root());
      const bool matches = frag.MatchesAnchored(pattern, &scratch);
      EXPECT_EQ(matches, MatchesPattern(pattern, subtree))
          << "seed=" << GetParam() << " trial=" << trial << " q=" << q;
      matched += matches ? 1 : 0;
      std::vector<int32_t> walked;
      frag.EvaluateAnchored(pattern, &scratch, &walked);
      EXPECT_EQ(walked, EvaluatePattern(pattern, subtree))
          << "seed=" << GetParam() << " trial=" << trial << " q=" << q;
      // The scratch-free forms run the same walk on call-local scratch.
      EXPECT_EQ(frag.MatchesAnchored(pattern), matches);
      EXPECT_EQ(frag.EvaluateAnchored(pattern), walked);
    }
  }
  EXPECT_GT(matched, 0) << "no generated pattern embedded in any fragment";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatFragmentRandomTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- serde: round-trip, strict reader ---------------------------------------

Fragment SampleFragment() {
  RandomDocOptions doc_options;
  doc_options.seed = 99;
  doc_options.num_nodes = 120;
  doc_options.attr_probability = 0.4;
  doc_options.text_probability = 0.4;
  const XmlTree tree = GenerateRandomDoc(doc_options);
  return Fragment::FromTree(tree, tree.root());
}

TEST(FragmentSerdeTest, V2RoundTripsByteForByte) {
  const Fragment frag = SampleFragment();
  const std::string bytes = frag.Serialize();
  // v2 leads with the magic marker.
  uint32_t magic = 0;
  ASSERT_GE(bytes.size(), 4u);
  std::memcpy(&magic, bytes.data(), 4);
  EXPECT_EQ(magic, Fragment::kFlatMagic);

  auto loaded = Fragment::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), bytes) << "v2 must be a fixed point";
  EXPECT_EQ(loaded->AbsoluteCode(0), frag.AbsoluteCode(0));
  CheckTopologyInvariants(*loaded);
}

TEST(FragmentSerdeTest, ImageWithoutMagicIsRejected) {
  // The v1 layout is the v2 body without the leading magic marker.
  const std::string v2 = SampleFragment().Serialize();
  auto loaded = Fragment::Deserialize(v2.substr(4));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

// A hand-built image of root(10) with children A(11) and B(12), where A
// has child C(13), listing its nodes in the given order (parents first).
// `text_ids` name the nodes (by image index) that carry a text entry.
std::string HandBuiltImage(bool preorder,
                           const std::vector<uint32_t>& text_ids) {
  std::string bytes;
  PutU32(Fragment::kFlatMagic, &bytes);
  PutU32(2, &bytes);  // root code depth
  PutU32(1, &bytes);
  PutU32(5, &bytes);  // root code = /1/5
  PutU32(4, &bytes);  // node count
  const uint32_t kNoParent = static_cast<uint32_t>(-1);
  PutU32(10, &bytes); PutU32(kNoParent, &bytes); PutU32(1, &bytes);
  PutU32(11, &bytes); PutU32(0, &bytes); PutU32(1, &bytes);
  if (preorder) {  // root, A, C, B
    PutU32(13, &bytes); PutU32(1, &bytes); PutU32(1, &bytes);
    PutU32(12, &bytes); PutU32(0, &bytes); PutU32(2, &bytes);
  } else {  // root, A, B, C: parents still precede children
    PutU32(12, &bytes); PutU32(0, &bytes); PutU32(2, &bytes);
    PutU32(13, &bytes); PutU32(1, &bytes); PutU32(1, &bytes);
  }
  PutU32(static_cast<uint32_t>(text_ids.size()), &bytes);
  for (uint32_t id : text_ids) {
    PutU32(id, &bytes);
    PutStr(std::to_string(id), &bytes);
  }
  PutU32(0, &bytes);  // no attributes
  return bytes;
}

TEST(FragmentSerdeTest, NonPreorderImageIsRejected) {
  auto canonical = Fragment::Deserialize(HandBuiltImage(true, {2, 3}));
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  CheckTopologyInvariants(*canonical);
  EXPECT_EQ(canonical->subtree_end(1), 3);  // A's subtree is {A, C}

  auto loaded = Fragment::Deserialize(HandBuiltImage(false, {2, 3}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(FragmentSerdeTest, DuplicateTextIdImageIsRejected) {
  auto loaded = Fragment::Deserialize(HandBuiltImage(true, {3, 3}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  // Out of order is rejected the same way: one entry per node, ascending.
  auto unsorted = Fragment::Deserialize(HandBuiltImage(true, {3, 2}));
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kParseError);
}

TEST(FragmentSerdeTest, PaddedImagesAreRejected) {
  const std::string full = SampleFragment().Serialize();
  for (const size_t pad : {1u, 3u, 7u}) {
    auto r = Fragment::Deserialize(full + std::string(pad, '\x5a'));
    ASSERT_FALSE(r.ok()) << pad << " bytes past the image must not parse";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

TEST(FragmentSerdeTest, TruncatedImagesFailCleanly) {
  const Fragment frag = SampleFragment();
  const std::string full = frag.Serialize();
  for (size_t len = 0; len < full.size(); ++len) {
    auto r = Fragment::Deserialize(full.substr(0, len));
    EXPECT_FALSE(r.ok()) << "strict prefix of length " << len
                         << " must not parse";
  }
}

// --- VFILTER: soundness with dense dispatch, serde --------------------------

class DenseNfaTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }

  // A view set with one high-fanout NFA state (20 distinct labels under
  // /r — over the dense threshold of 8) plus wildcard, descendant
  // and branching shapes so dispatch covers every transition kind.
  std::vector<TreePattern> HighFanoutViews() {
    std::vector<TreePattern> views;
    for (int i = 0; i < 20; ++i) {
      views.push_back(Parse("/r/a" + std::to_string(i)));
    }
    views.push_back(Parse("/r/*/a1"));
    views.push_back(Parse("//a2/a3"));
    views.push_back(Parse("/r/a4[a5]/a6"));
    views.push_back(Parse("/r//a7"));
    return views;
  }

  VFilter Build(const std::vector<TreePattern>& views) {
    VFilter filter;
    for (size_t i = 0; i < views.size(); ++i) {
      filter.AddView(static_cast<int32_t>(i), views[i]);
    }
    return filter;
  }

  std::vector<TreePattern> Queries() {
    std::vector<TreePattern> queries;
    for (int i = 0; i < 20; ++i) {
      queries.push_back(Parse("/r/a" + std::to_string(i)));
    }
    queries.push_back(Parse("/r/a4[a5]/a6"));
    queries.push_back(Parse("/r/a2/a3"));
    queries.push_back(Parse("//a7"));
    queries.push_back(Parse("/r/*"));
    queries.push_back(Parse("/r/zzz"));  // label unknown to the views
    return queries;
  }

  static void ExpectSameResult(const FilterResult& a, const FilterResult& b,
                               const std::string& context) {
    EXPECT_EQ(a.candidates, b.candidates) << context;
    ASSERT_EQ(a.lists.size(), b.lists.size()) << context;
    for (size_t i = 0; i < a.lists.size(); ++i) {
      ASSERT_EQ(a.lists[i].size(), b.lists[i].size()) << context;
      for (size_t j = 0; j < a.lists[i].size(); ++j) {
        EXPECT_EQ(a.lists[i][j].view_id, b.lists[i][j].view_id) << context;
        EXPECT_EQ(a.lists[i][j].length, b.lists[i][j].length) << context;
      }
    }
  }

  LabelDict dict_;
};

TEST_F(DenseNfaTest, HighFanoutCatalogKeepsContainingViews) {
  const std::vector<TreePattern> views = HighFanoutViews();
  const VFilter filter = Build(views);
  ASSERT_GT(filter.nfa().num_dense_states(), 0u)
      << "fanout-20 state must have flipped to a dense table";

  int containments = 0;
  const std::vector<TreePattern> queries = Queries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<int32_t> candidates =
        filter.Filter(queries[q]).candidates;
    for (size_t v = 0; v < views.size(); ++v) {
      if (!ExistsHomomorphism(views[v], queries[q])) {
        continue;
      }
      ++containments;
      EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                          static_cast<int32_t>(v)),
                candidates.end())
          << "view " << v << " filtered out for query " << q;
    }
  }
  EXPECT_GE(containments, 20);
}

// The engine image holds the views, not the filter: LoadState rebuilds
// VFILTER from them, dense tables included, and every query filters as it
// did before the save.
TEST_F(DenseNfaTest, SerdeRoundTripPreservesDenseBehavior) {
  const std::string path = TestTempPath("xvr_dense_nfa_state.bin");
  std::string xml = "<r>";
  for (int i = 0; i < 20; ++i) {
    xml += "<a" + std::to_string(i) + "/>";
  }
  xml += "<x><a1/></x><a2><a3/></a2><a4><a5/><a6/></a4></r>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  Engine engine(std::move(doc).value());
  for (const TreePattern& view : HighFanoutViews()) {
    auto parsed = engine.Parse(PatternToXPath(view, dict_));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ASSERT_TRUE(engine.AddView(std::move(parsed).value()).ok());
  }
  ASSERT_GT(engine.vfilter().nfa().num_dense_states(), 0u);
  ASSERT_TRUE(engine.SaveState(path).ok());
  auto loaded = Engine::LoadState(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->vfilter().nfa().num_dense_states(),
            engine.vfilter().nfa().num_dense_states());
  const std::vector<TreePattern> queries = Queries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string xpath = PatternToXPath(queries[q], dict_);
    auto before = engine.Parse(xpath);
    auto after = (*loaded)->Parse(xpath);
    ASSERT_TRUE(before.ok() && after.ok()) << xpath;
    ExpectSameResult((*loaded)->vfilter().Filter(*after),
                     engine.vfilter().Filter(*before), xpath);
  }
}

// --- rewrite: view strategies against BN -----------------------------------
//
// BN answers from the base document and never reads a view, so it checks
// the rewrite independently. The batches hold only generated queries the
// catalog answers, so every slot compares real codes.

class ViewStrategyDifferentialTest : public ::testing::Test {
 protected:
  static constexpr AnswerStrategy kViewStrategies[] = {
      AnswerStrategy::kHeuristicFiltered,
      AnswerStrategy::kMinimumFiltered,
  };

  // Answers `queries` under `strategy` one after another on this thread.
  std::vector<Result<QueryAnswer>> AnswerInTurn(
      const std::vector<TreePattern>& queries, AnswerStrategy strategy) const {
    std::vector<Result<QueryAnswer>> answers;
    for (const TreePattern& query : queries) {
      answers.push_back(engine_->AnswerQuery(query, strategy));
    }
    return answers;
  }

  // An XMark document with 40 generated views; the batch is the generated
  // queries, out of 300 draws, that HV answers from them (161; 12 of the
  // 322 HV and MV answers join several views), and bn_ holds BN's answers
  // to it.
  void BuildCatalog() {
    XmarkOptions doc_options;
    doc_options.scale = 0.12;
    doc_options.seed = 17;
    engine_ = std::make_unique<Engine>(GenerateXmark(doc_options));
    const QueryGenerator generator(engine_->doc(), QueryGenOptions{});
    Rng rng(4242);
    int added = 0;
    for (int attempt = 0; attempt < 400 && added < 40; ++attempt) {
      if (engine_->AddView(generator.Generate(&rng)).ok()) {
        ++added;
      }
    }
    ASSERT_EQ(added, 40);
    std::vector<TreePattern> draws;
    for (int i = 0; i < 300; ++i) {
      draws.push_back(generator.Generate(&rng));
    }
    const auto hv = AnswerInTurn(draws, AnswerStrategy::kHeuristicFiltered);
    for (size_t i = 0; i < draws.size(); ++i) {
      if (hv[i].ok()) {
        batch_.push_back(std::move(draws[i]));
      }
    }
    ASSERT_GE(batch_.size(), 100u);
    bn_ = AnswerInTurn(batch_, AnswerStrategy::kBaseNodeIndex);
  }

  // Expects BN's codes in every slot of `answers`, the batch answered
  // under `strategy`. Returns how many answers joined several views.
  int ExpectBatchMatchesBn(AnswerStrategy strategy,
                           const std::vector<Result<QueryAnswer>>& answers) {
    const char* name = AnswerStrategyName(strategy);
    EXPECT_EQ(answers.size(), bn_.size());
    int joins = 0;
    for (size_t i = 0; i < answers.size() && i < bn_.size(); ++i) {
      EXPECT_TRUE(bn_[i].ok()) << "BN slot " << i << ": " << bn_[i].status();
      EXPECT_TRUE(answers[i].ok())
          << name << " slot " << i << ": " << answers[i].status();
      if (!answers[i].ok() || !bn_[i].ok()) {
        continue;
      }
      EXPECT_EQ(answers[i]->codes, bn_[i]->codes) << name << " slot " << i;
      joins += answers[i]->stats.views_selected > 1 ? 1 : 0;
    }
    return joins;
  }

  std::unique_ptr<Engine> engine_;
  std::vector<TreePattern> batch_;
  std::vector<Result<QueryAnswer>> bn_;
};

TEST_F(ViewStrategyDifferentialTest, ViewAnswersMatchBnOnXmark) {
  ASSERT_NO_FATAL_FAILURE(BuildCatalog());
  int joins = 0;
  for (AnswerStrategy strategy : kViewStrategies) {
    joins += ExpectBatchMatchesBn(strategy, AnswerInTurn(batch_, strategy));
  }
  EXPECT_GT(joins, 0) << "no answer joined more than one view";
}

TEST_F(ViewStrategyDifferentialTest, ThreadedBatchMatchesBn) {
  // Four threads, one arena-bearing ExecutionContext each: the TSan shape
  // for the serving path.
  ASSERT_NO_FATAL_FAILURE(BuildCatalog());
  for (AnswerStrategy strategy : kViewStrategies) {
    const auto answers =
        AnswerOnThreads(*engine_, batch_, strategy, /*num_threads=*/4);
    ExpectBatchMatchesBn(strategy, answers);
  }
}

TEST_F(ViewStrategyDifferentialTest, TightBudgetsExhaustResources) {
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  doc_options.seed = 23;
  Engine engine(GenerateXmark(doc_options));
  ASSERT_TRUE(
      engine.AddView(*engine.Parse("//person/name")).ok());
  ASSERT_TRUE(
      engine.AddView(*engine.Parse("//person[profile]/name")).ok());

  std::vector<TreePattern> batch;
  batch.push_back(*engine.Parse("/site/people/person/name"));
  batch.push_back(*engine.Parse("/site/people/person[profile]/name"));

  QueryLimits tight;
  tight.max_result_codes = 1;    // every answer here has more codes
  tight.max_join_fragments = 2;  // and every view more refined fragments
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto result =
        engine.AnswerQuery(batch[i], AnswerStrategy::kHeuristicFiltered, tight);
    ASSERT_FALSE(result.ok()) << "slot " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "slot " << i << ": " << result.status();
  }
}

TEST_F(ViewStrategyDifferentialTest, SteadyStreamReusesArenaCapacity) {
  // AnswerQuery in turn drives every query through ONE context, the
  // thread's own: the arena must reach its high-water mark and then serve
  // identical answers with a stable footprint (Reset() + chunk reuse, no
  // growth).
  XmarkOptions doc_options;
  doc_options.scale = 0.1;
  doc_options.seed = 31;
  Engine engine(GenerateXmark(doc_options));
  ASSERT_TRUE(engine.AddView(*engine.Parse("//person/name")).ok());
  ASSERT_TRUE(engine.AddView(*engine.Parse("//item/location")).ok());

  const TreePattern query = *engine.Parse("/site/people/person/name");
  std::vector<Result<QueryAnswer>> first;
  for (int i = 0; i < 16; ++i) {
    first.push_back(
        engine.AnswerQuery(query, AnswerStrategy::kHeuristicFiltered));
  }
  for (const auto& r : first) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_EQ(first[i]->codes, first[0]->codes) << "slot " << i;
  }

  // The per-query arena gauges surfaced through the engine's metrics.
  const std::string text = engine.MetricsText();
  const auto value_of = [&text](const std::string& name) -> long long {
    const std::string needle = "gauge " + name + " ";
    const size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << name << " missing from:\n" << text;
    if (pos == std::string::npos) return -1;
    return std::atoll(text.c_str() + pos + needle.size());
  };
  EXPECT_GT(value_of("xvr.arena.high_water"), 0);
  EXPECT_GE(value_of("xvr.arena.high_water"),
            value_of("xvr.arena.bytes_allocated"));
}

}  // namespace
}  // namespace xvr
