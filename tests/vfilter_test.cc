#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/validate.h"
#include "common/hash.h"
#include "core/plan_deps.h"
#include "pattern/homomorphism.h"
#include "pattern/normalize.h"
#include "pattern/xpath_parser.h"
#include "vfilter/vfilter.h"
#include "workload/query_gen.h"
#include "workload/workloads.h"
#include "workload/xmark.h"

namespace xvr {
namespace {

class VFilterTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  // Builds a filter over the given views (ids = positions).
  VFilter Build(const std::vector<std::string>& views) {
    VFilter filter;
    for (size_t i = 0; i < views.size(); ++i) {
      filter.AddView(static_cast<int32_t>(i), Parse(views[i]));
    }
    return filter;
  }
  static bool Has(const FilterResult& result, int32_t id) {
    return std::find(result.candidates.begin(), result.candidates.end(),
                     id) != result.candidates.end();
  }
  LabelDict dict_;
};

// The paper's Table I view set; Example 3.4 query s[f//i][t]/p selects V1
// (s[t]/p) and V4 (s[p]/f) as candidates.
TEST_F(VFilterTest, PaperExample34) {
  VFilter filter = Build({
      "/s[t]/p",        // V1: paths s/t, s/p
      "/s[.//f]/p",     // V2: paths s//f, s/p
      "//s/p",          // V3: path //s/p
      "/s[p]/f//i",     // V4: paths s/p, s/f//i
  });
  const FilterResult result = filter.Filter(Parse("/s[f//i][t]/p"));
  EXPECT_TRUE(Has(result, 0));   // V1: both paths contain query paths
  EXPECT_TRUE(Has(result, 3));   // V4
  // V3 (//s/p): its only path contains s/p -> candidate as well.
  EXPECT_TRUE(Has(result, 2));
  // V2's s//f path contains s/f//i, and s/p contains s/p -> candidate.
  EXPECT_TRUE(Has(result, 1));
}

TEST_F(VFilterTest, FiltersViewsWithUnmatchedPaths) {
  VFilter filter = Build({
      "/s[x]/p",  // x never appears in the query
      "/s/p",
  });
  const FilterResult result = filter.Filter(Parse("/s[t]/p"));
  EXPECT_FALSE(Has(result, 0));
  EXPECT_TRUE(Has(result, 1));
}

TEST_F(VFilterTest, DescendantViewPathAbsorbsQuerySteps) {
  VFilter filter = Build({"//p", "/s//p", "/s/p", "/x//p"});
  const FilterResult result = filter.Filter(Parse("/s/a/p"));
  EXPECT_TRUE(Has(result, 0));
  EXPECT_TRUE(Has(result, 1));
  EXPECT_FALSE(Has(result, 2));  // /s/p does not contain /s/a/p
  EXPECT_FALSE(Has(result, 3));
}

TEST_F(VFilterTest, TrailingSelfLoopAcceptsLongerQueries) {
  VFilter filter = Build({"/s/p"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/p/q/r")), 0));
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/p//q")), 0));
  EXPECT_FALSE(Has(filter.Filter(Parse("/s/q")), 0));
}

TEST_F(VFilterTest, WildcardViewSteps) {
  VFilter filter = Build({"/s/*/p", "/s/*"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/a/p")), 0));
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/*/p")), 0));
  // /s//p is not contained in /s/*/p (p may be a direct child).
  EXPECT_FALSE(Has(filter.Filter(Parse("/s//p")), 0));
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/a")), 1));
}

TEST_F(VFilterTest, HashTokenOnlyAbsorbedByLoops) {
  VFilter filter = Build({"/s/p", "/s//p"});
  const FilterResult result = filter.Filter(Parse("/s//p"));
  EXPECT_FALSE(Has(result, 0));
  EXPECT_TRUE(Has(result, 1));
}

TEST_F(VFilterTest, NormalizationEliminatesFalseNegatives) {
  // Example 3.2/3.3: view s//*/t must accept query s/*//t.
  VFilter filter = Build({"/s//*/t"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/*//t")), 0));

  // Without normalization the equivalent query is over-filtered: an NFA
  // that indexes and reads the raw forms only does not accept it.
  PathNfa raw;
  raw.Insert(Decompose(Parse("/s//*/t")).paths[0], 0, 0);
  std::vector<int32_t> tokens;
  PathToTokens(Decompose(Parse("/s/*//t")).paths[0], &tokens);
  std::vector<const AcceptEntry*> hits;
  raw.Read(tokens, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST_F(VFilterTest, RawReadCatchesPrefixContainmentThroughNormalization) {
  // Query /site/*[.//*/*]: its only root-to-leaf path site/*//*/*
  // normalizes to site//*/*/*, which the short view /site[*]/* no longer
  // matches by homomorphism — the raw read must keep the view.
  VFilter filter = Build({"/site[*]/*"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/site/*[.//*/*]")), 0));
}

TEST_F(VFilterTest, RawInsertCatchesViewNormalizationGap) {
  // View /site/*[.//*] has the single path site/*//*, normalized to
  // site//*/* whose two wildcards become adjacent; the query
  // /site/regions[.//to] (path site/regions//to) only matches the raw
  // form.
  VFilter filter = Build({"/site/*[.//*]"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/site/regions[.//to]")), 0));
}

TEST_F(VFilterTest, RootAnchorSemantics) {
  VFilter filter = Build({"/a/b", "//a/b", "//b"});
  // Query //a/b: not contained in /a/b.
  const FilterResult r1 = filter.Filter(Parse("//a/b"));
  EXPECT_FALSE(Has(r1, 0));
  EXPECT_TRUE(Has(r1, 1));
  EXPECT_TRUE(Has(r1, 2));
  // Query /a/b contained in all three.
  const FilterResult r2 = filter.Filter(Parse("/a/b"));
  EXPECT_TRUE(Has(r2, 0));
  EXPECT_TRUE(Has(r2, 1));
  EXPECT_TRUE(Has(r2, 2));
}

TEST_F(VFilterTest, ListsSortedByLengthDescending) {
  VFilter filter = Build({"//p", "/s//p", "/s/a/p"});
  const FilterResult result = filter.Filter(Parse("/s/a/p"));
  ASSERT_EQ(result.decomposition.paths.size(), 1u);
  const auto& list = result.lists[0];
  ASSERT_GE(list.size(), 3u);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_GE(list[i - 1].length, list[i].length);
  }
  EXPECT_EQ(list[0].length, 3);  // /s/a/p itself
}

TEST_F(VFilterTest, ListsContainOnlyCandidates) {
  VFilter filter = Build({"/s[x]/p", "/s/p"});
  const FilterResult result = filter.Filter(Parse("/s[t]/p"));
  for (const auto& list : result.lists) {
    for (const auto& entry : list) {
      EXPECT_TRUE(Has(result, entry.view_id));
    }
  }
}

TEST_F(VFilterTest, RemoveViewStopsMatching) {
  VFilter filter = Build({"/s/p", "/s//p"});
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/p")), 0));
  filter.RemoveView(0);
  EXPECT_FALSE(Has(filter.Filter(Parse("/s/p")), 0));
  EXPECT_TRUE(Has(filter.Filter(Parse("/s/p")), 1));
  EXPECT_EQ(filter.num_views(), 1u);
}

// The trie against the same automaton without prefix sharing: one private
// chain per indexed path form, as long as a fresh one-path NFA minus its
// start state.
TEST_F(VFilterTest, PrefixSharingShrinksAutomaton) {
  const std::vector<std::string> views = {"/s/a/b", "/s/a/c", "/s/a/d",
                                          "/s/b/a", "/s/b/c"};
  const VFilter shared = Build(views);
  size_t unshared_states = 1;  // the start state
  for (const std::string& view : views) {
    for (const PathPattern& path : Decompose(Parse(view)).paths) {
      ForEachPathForm(path, [&](const PathPattern& form) {
        PathNfa chain;
        chain.Insert(form, 0, 0);
        unshared_states += chain.num_states() - 1;
      });
    }
  }
  EXPECT_EQ(unshared_states, 1u + 5 * 3);
  // Shared: /s, its a and b children, and the five leaves.
  EXPECT_EQ(shared.num_states(), 1u + 1 + 2 + 5);
}

TEST_F(VFilterTest, SizeGrowsSubLinearlyWithSharedPrefixes) {
  // Views sharing a long common prefix: doubling the view count should far
  // less than double the automaton (the Fig. 11 effect).
  auto build = [&](int n) {
    VFilter filter;
    for (int i = 0; i < n; ++i) {
      filter.AddView(i, Parse("/site/regions/africa/item/name" +
                              std::string(i % 2 == 0 ? "" : "/x" +
                                                               std::to_string(
                                                                   i))));
    }
    EXPECT_EQ(filter.automaton_size(), filter.num_states() +
                                           filter.num_transitions() +
                                           filter.nfa().num_accept_entries());
    return filter.automaton_size();
  };
  const size_t s1 = build(10);
  const size_t s2 = build(20);
  EXPECT_LT(static_cast<double>(s2),
            1.9 * static_cast<double>(s1));
}

TEST_F(VFilterTest, NoFalseNegativesAgainstHomomorphism) {
  // Any view with a homomorphism to the query must be a candidate.
  const std::vector<std::string> views = {
      "/s[t]/p",  "/s[.//f]/p", "//s/p",    "/s[p]/f//i", "//s//*",
      "/s/*[t]",  "//f/i",      "/s[t][p]", "//s[f]/p",   "/s//p[q]",
  };
  VFilter filter = Build(views);
  const std::vector<std::string> queries = {
      "/s[f/i][t]/p", "/s[f//i][t]/p", "/s/f/i", "//s[t]/p/q",
      "/s[t][f]/p",   "/s/s[t]/p",
  };
  for (const std::string& qx : queries) {
    const TreePattern q = Parse(qx);
    const FilterResult result = filter.Filter(q);
    for (size_t i = 0; i < views.size(); ++i) {
      if (ExistsHomomorphism(Parse(views[i]), q)) {
        EXPECT_TRUE(Has(result, static_cast<int32_t>(i)))
            << "view " << views[i] << " dropped for query " << qx;
      }
    }
  }
}

TEST_F(VFilterTest, StatisticsExposed) {
  VFilter filter = Build({"/s[t]/p", "/s//f"});
  EXPECT_EQ(filter.num_views(), 2u);
  EXPECT_GT(filter.num_states(), 3u);
  EXPECT_GT(filter.num_transitions(), 3u);
  EXPECT_EQ(filter.NumPathsOf(0), 2);
  EXPECT_EQ(filter.NumPathsOf(1), 1);
  EXPECT_EQ(filter.NumPathsOf(99), -1);
}

// Candidates and every LIST(P_i) as one string: "c=0,1;" then per query
// path "view:length ..." and "|".
std::string Summary(const FilterResult& result) {
  std::string out = "c=";
  for (const int32_t v : result.candidates) {
    out += std::to_string(v) + ",";
  }
  out += ";";
  for (const auto& list : result.lists) {
    for (const ViewLengthEntry& e : list) {
      out += std::to_string(e.view_id) + ":" + std::to_string(e.length) + " ";
    }
    out += "|";
  }
  return out;
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += s;
  }
  return out;
}

// A view with 65 paths: path ids 0..63 have a mask bit, id 64 does not, so
// candidacy ignores the last path. Pinned from the map-based bookkeeping
// the slot records replaced.
TEST_F(VFilterTest, ViewWithSixtyFivePaths) {
  const auto xpath = [](int preds, bool with_p) {
    std::string x = "/s";
    for (int i = 0; i < preds; ++i) {
      x += "[a" + std::to_string(i) + "]";
    }
    return with_p ? x + "/p" : x;
  };
  VFilter filter = Build({xpath(64, true), "/s/p"});
  ASSERT_EQ(filter.NumPathsOf(0), 65);
  NfaReadScratch scratch;
  // The view itself: every path accepted.
  EXPECT_EQ(Summary(filter.Filter(Parse(xpath(64, true)), &scratch)),
            "c=0,1,;" + Repeat("0:2 |", 64) + "0:2 1:2 |");
  // Without its last predicate: path 63 is never accepted.
  EXPECT_EQ(Summary(filter.Filter(Parse(xpath(63, true)), &scratch)),
            "c=1,;" + Repeat("|", 63) + "1:2 |");
  // Without /p: only path 64 is missing, which has no mask bit, so the view
  // stays a (false-positive) candidate.
  EXPECT_EQ(Summary(filter.Filter(Parse(xpath(64, false)), &scratch)),
            "c=0,;" + Repeat("0:2 |", 64));
  // Unrelated.
  EXPECT_EQ(Summary(filter.Filter(Parse("/t/u"), &scratch)), "c=;|");
}

// Filter's stamps and the NFA's read epochs live as long as the scratch (a
// thread's every query). Wherever near their end a call starts, on a fresh
// or a used scratch, they restart instead of wrapping onto records and
// marks that look current.
TEST_F(VFilterTest, ScratchStampsRestartBeforeWrapping) {
  VFilter filter = Build({"/s[t]/p", "//s/p", "/s[p]/f", "/s[x]/p"});
  const TreePattern q = Parse("/s[t][f]/p");
  NfaReadScratch fresh;
  const std::string want = Summary(filter.Filter(q, &fresh));
  EXPECT_EQ(want, "c=0,1,2,;0:2 |2:2 |0:2 1:2 2:2 |");
  for (uint32_t before_end = 0; before_end < 16; ++before_end) {
    for (const bool used : {false, true}) {
      NfaReadScratch scratch;
      if (used) {
        EXPECT_EQ(Summary(filter.Filter(q, &scratch)), want);
      }
      scratch.filter_stamp = UINT32_MAX - before_end;
      scratch.epoch = UINT32_MAX - before_end;
      scratch.read_epoch = UINT32_MAX - before_end;
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(Summary(filter.Filter(q, &scratch)), want)
            << "stamps " << before_end << " before the end, used " << used
            << ", call " << i;
      }
      EXPECT_LT(scratch.filter_stamp, 100u);
    }
  }
}

// The catalog of the VFilterCandidacyTest cases: 400 generated views
// (seed 7) and up to 120 generated queries with two predicates (seed 8)
// over a small XMark document, with the paper's workload parameters
// (§VI-A).
struct CandidacyCatalog {
  std::vector<TreePattern> views;
  std::vector<TreePattern> queries;
};

CandidacyCatalog GenerateCandidacyCatalog() {
  XmarkOptions xmark;
  xmark.scale = 0.05;
  const XmlTree doc = GenerateXmark(xmark);
  QueryGenOptions gen;
  gen.max_depth = 4;
  gen.prob_wild = 0.2;
  gen.prob_desc = 0.2;
  gen.num_pred = 1;
  gen.num_nestedpath = 1;
  CandidacyCatalog catalog;
  catalog.views = GenerateViewSet(doc, 400, gen, 7);
  gen.num_pred = 2;
  catalog.queries = GenerateViewSet(doc, 120, gen, 8);
  return catalog;
}

// Filter against an independent implementation of the same test:
// PublicationAdmits (core/plan_deps.h) reads the query's streams through a
// one-view NFA per view. For every (query, view) pair, candidacy must
// agree, and each LIST(P_i) must hold exactly the candidates with an
// accepting path, at the longest accepting length. Checked again after
// churn reuses slots, with one scratch for every call, including calls on
// a second, smaller filter.
TEST(VFilterCandidacyTest, AgreesWithOneViewNfas) {
  const CandidacyCatalog catalog = GenerateCandidacyCatalog();
  const std::vector<TreePattern>& views = catalog.views;
  const std::vector<TreePattern>& queries = catalog.queries;
  ASSERT_EQ(views.size(), 400u);
  ASSERT_GE(queries.size(), 100u);

  VFilter big;
  VFilter small;
  std::vector<int32_t> big_ids;
  std::vector<int32_t> small_ids;
  std::vector<ViewPublication> pubs;
  for (size_t i = 0; i < 300; ++i) {
    const int32_t id = static_cast<int32_t>(i);
    big.AddView(id, views[i]);
    big_ids.push_back(id);
    if (i % 10 == 0) {
      small.AddView(id, views[i]);
      small_ids.push_back(id);
    }
    pubs.push_back(MakeViewPublication(id, views[i]));
    ASSERT_LT(pubs.back().num_paths, 64);  // PublicationAdmits is exact
  }

  NfaReadScratch scratch;
  size_t pairs = 0;
  size_t candidates = 0;
  const auto check = [&](const VFilter& filter,
                         const std::vector<int32_t>& view_ids,
                         const TreePattern& query) {
    const FilterResult result = filter.Filter(query, &scratch);
    const PlanDependencies deps =
        BuildPlanDependencies(query, {}, /*filtered=*/true);
    std::vector<std::vector<ViewLengthEntry>> want_lists(
        result.decomposition.paths.size());
    std::vector<int32_t> tokens;
    std::vector<const AcceptEntry*> hits;
    for (const int32_t id : view_ids) {
      const ViewPublication& pub = pubs[static_cast<size_t>(id)];
      const bool admits = PublicationAdmits(deps, pub, &scratch);
      const bool candidate = std::binary_search(
          result.candidates.begin(), result.candidates.end(), id);
      ++pairs;
      EXPECT_EQ(candidate, admits) << "view " << id;
      if (!candidate) {
        continue;
      }
      ++candidates;
      for (size_t i = 0; i < result.decomposition.paths.size(); ++i) {
        const PathPattern& raw = result.decomposition.paths[i];
        const PathPattern normalized = NormalizePath(raw);
        int32_t longest = 0;
        for (const PathPattern* p : {&normalized, &raw}) {
          PathToTokens(*p, &tokens);
          pub.nfa.Read(tokens, &hits, &scratch);
          for (const AcceptEntry* e : hits) {
            longest = std::max(longest, e->length);
          }
        }
        if (longest > 0) {
          want_lists[i].push_back(ViewLengthEntry{id, longest});
        }
      }
    }
    for (size_t i = 0; i < want_lists.size(); ++i) {
      std::sort(want_lists[i].begin(), want_lists[i].end(),
                [](const ViewLengthEntry& a, const ViewLengthEntry& b) {
                  if (a.length != b.length) return a.length > b.length;
                  return a.view_id < b.view_id;
                });
      ASSERT_EQ(result.lists[i].size(), want_lists[i].size()) << "path " << i;
      for (size_t k = 0; k < want_lists[i].size(); ++k) {
        EXPECT_EQ(result.lists[i][k].view_id, want_lists[i][k].view_id);
        EXPECT_EQ(result.lists[i][k].length, want_lists[i][k].length);
      }
    }
  };
  const auto check_all = [&] {
    for (const TreePattern& query : queries) {
      check(big, big_ids, query);
      check(small, small_ids, query);
    }
  };
  check_all();

  // Churn: drop every third view, then add 100 new ones into the freed
  // slots (last freed first).
  for (int32_t id = 0; id < 300; id += 3) {
    big.RemoveView(id);
  }
  big_ids.erase(std::remove_if(big_ids.begin(), big_ids.end(),
                               [](int32_t id) { return id % 3 == 0; }),
                big_ids.end());
  ASSERT_EQ(big.free_slots().size(), 100u);
  for (size_t i = 300; i < views.size(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    big.AddView(id, views[i]);
    big_ids.push_back(id);
    pubs.push_back(MakeViewPublication(id, views[i]));
  }
  EXPECT_EQ(big.slots().size(), 300u);
  const Status valid = ValidateVFilter(big);
  EXPECT_TRUE(valid.ok()) << valid;
  check_all();
  EXPECT_GT(candidates, queries.size());  // the check is not vacuous
  EXPECT_EQ(pairs, queries.size() * 2 * (300 + 30));
}

// The automaton and its outputs on the candidacy catalog, pinned: its
// size, and an FNV-1a digest over every query's candidates and LIST(P_i)
// (Summary), before and after removing every 7th view. A refactor that
// changes either fails here even when both stay sound.
TEST(VFilterCandidacyTest, PinnedOnGeneratedCatalog) {
  const CandidacyCatalog catalog = GenerateCandidacyCatalog();
  VFilter filter;
  for (size_t i = 0; i < catalog.views.size(); ++i) {
    filter.AddView(static_cast<int32_t>(i), catalog.views[i]);
  }
  const auto digest = [&] {
    NfaReadScratch scratch;
    uint64_t h = kFnv1aOffset;
    for (const TreePattern& query : catalog.queries) {
      h = Fnv1a(Summary(filter.Filter(query, &scratch)), h);
    }
    return h;
  };
  EXPECT_EQ(catalog.queries.size(), 120u);
  EXPECT_EQ(filter.num_states(), 487u);
  EXPECT_EQ(filter.num_transitions(), 909u);
  EXPECT_EQ(filter.nfa().num_accept_entries(), 691u);
  EXPECT_EQ(digest(), 0x8e6e29aecbf7a1daULL);
  for (int32_t id = 0; id < static_cast<int32_t>(catalog.views.size());
       id += 7) {
    filter.RemoveView(id);
  }
  EXPECT_EQ(filter.num_states(), 487u);
  EXPECT_EQ(filter.num_transitions(), 864u);
  EXPECT_EQ(filter.nfa().num_accept_entries(), 590u);
  EXPECT_EQ(digest(), 0xd06a37090b3dc29fULL);
}

}  // namespace
}  // namespace xvr
