#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pattern/path_pattern.h"
#include "pattern/xpath_parser.h"
#include "vfilter/nfa.h"

namespace xvr {
namespace {

class PathNfaTest : public ::testing::Test {
 protected:
  PathPattern Path(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << r.status();
    const Decomposition d = Decompose(*r);
    EXPECT_EQ(d.paths.size(), 1u);
    return d.paths[0];
  }
  // View ids accepted when reading the token string of `query_xpath`.
  std::set<int32_t> Accepted(const PathNfa& nfa,
                             const std::string& query_xpath) {
    std::vector<int32_t> tokens;
    PathToTokens(Path(query_xpath), &tokens);
    std::vector<const AcceptEntry*> hits;
    nfa.Read(tokens, &hits);
    std::set<int32_t> ids;
    for (const AcceptEntry* e : hits) {
      ids.insert(e->view_id);
    }
    return ids;
  }
  LabelDict dict_;
};

TEST_F(PathNfaTest, TriePrefixSharing) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b/c"), 0, 0);
  const size_t after_first = nfa.num_states();
  nfa.Insert(Path("/a/b/d"), 1, 0);
  // Only one new state for the diverging last step.
  EXPECT_EQ(nfa.num_states(), after_first + 1);
  EXPECT_EQ(Accepted(nfa, "/a/b/c"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/b/d"), (std::set<int32_t>{1}));
}

TEST_F(PathNfaTest, LoopStateSharedAcrossDescendantSteps) {
  PathNfa nfa;
  nfa.Insert(Path("/a//b"), 0, 0);
  const size_t after_first = nfa.num_states();
  nfa.Insert(Path("/a//c"), 1, 0);
  // The '//' waiting state off /a is reused; only the c-target is new.
  EXPECT_EQ(nfa.num_states(), after_first + 1);
  EXPECT_EQ(Accepted(nfa, "/a/x/y/b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/c"), (std::set<int32_t>{1}));
}

TEST_F(PathNfaTest, AcceptanceRecordedOnFirstEntry) {
  // A short view accepts any longer query extending it, even when the
  // continuation dies.
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/b/zzz"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/b//q/r"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a"), (std::set<int32_t>{}));
}

TEST_F(PathNfaTest, AcceptingStateWithContinuation) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  nfa.Insert(Path("/a/b/c"), 1, 0);
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/b/c"), (std::set<int32_t>{0, 1}));
}

TEST_F(PathNfaTest, HashOnlyAbsorbedByLoops) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  nfa.Insert(Path("/a//b"), 1, 0);
  EXPECT_EQ(Accepted(nfa, "/a//b"), (std::set<int32_t>{1}));
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{0, 1}));
}

TEST_F(PathNfaTest, StarMatchesLabelsNotHash) {
  PathNfa nfa;
  nfa.Insert(Path("/a/*/c"), 0, 0);
  EXPECT_EQ(Accepted(nfa, "/a/x/c"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/*/c"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a//c"), (std::set<int32_t>{}));
}

TEST_F(PathNfaTest, ExactLabelDoesNotMatchStarToken) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  EXPECT_EQ(Accepted(nfa, "/a/*"), (std::set<int32_t>{}));
}

TEST_F(PathNfaTest, RemoveViewKeepsSharedStates) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  nfa.Insert(Path("/a/b"), 1, 0);
  const size_t states = nfa.num_states();
  nfa.RemoveView(0);
  EXPECT_EQ(nfa.num_states(), states);
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{1}));
  nfa.RemoveView(1);
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{}));
  EXPECT_EQ(nfa.num_accept_entries(), 0u);
}

// RemoveView scans read-only: a copy that drops a view writes, and so
// clones, only the state chunks holding the view's accept entries. Every
// other chunk stays shared, and the original keeps the view.
TEST_F(PathNfaTest, RemoveViewWritesOnlyTheChunksHoldingTheView) {
  constexpr size_t kChunk = CowTable<PathNfa::State>::kChunkSize;
  PathNfa nfa;
  // Private chains: 40 views x 5 states after the start state, 4 chunks.
  // Each view's first label is its own, so the trie shares only the start.
  const auto chain = [](int32_t v) {
    return "/x" + std::to_string(v) + "/b/c/d/e";
  };
  for (int32_t v = 0; v < 40; ++v) {
    nfa.Insert(Path(chain(v)), v, 0);
  }
  ASSERT_EQ(nfa.num_states(), 1u + 40 * 5);
  ASSERT_GT(nfa.num_states(), 3 * kChunk);
  const int32_t victim = 17;
  std::set<size_t> victim_chunks;
  for (const auto& [id, state] : nfa.states()) {
    for (const AcceptEntry& e : state.accepts) {
      if (e.view_id == victim) {
        victim_chunks.insert(static_cast<size_t>(id) / kChunk);
      }
    }
  }
  ASSERT_EQ(victim_chunks.size(), 1u);

  PathNfa copy = nfa;
  copy.RemoveView(victim);
  for (StateId id = 0; id < static_cast<StateId>(nfa.num_states()); ++id) {
    const bool written =
        victim_chunks.count(static_cast<size_t>(id) / kChunk) > 0;
    EXPECT_EQ(&copy.states()[id] == &nfa.states()[id], !written) << id;
  }
  EXPECT_EQ(Accepted(nfa, chain(victim)), (std::set<int32_t>{victim}));
  EXPECT_EQ(Accepted(copy, chain(victim)), (std::set<int32_t>{}));
  for (int32_t v = 0; v < 40; ++v) {
    if (v != victim) {
      EXPECT_EQ(Accepted(copy, chain(v)), (std::set<int32_t>{v})) << v;
    }
  }
}

TEST_F(PathNfaTest, ScratchStateSurvivesManyReads) {
  PathNfa nfa;
  nfa.Insert(Path("/a//b"), 0, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(Accepted(nfa, "/a/x/b"), (std::set<int32_t>{0}));
    EXPECT_EQ(Accepted(nfa, "/a/x/c"), (std::set<int32_t>{}));
  }
}

TEST_F(PathNfaTest, MultipleAcceptEntriesAtOneState) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b"), 0, 0);
  nfa.Insert(Path("/a/b"), 7, 2);
  std::vector<int32_t> tokens;
  PathToTokens(Path("/a/b"), &tokens);
  std::vector<const AcceptEntry*> hits;
  nfa.Read(tokens, &hits);
  ASSERT_EQ(hits.size(), 2u);
  std::set<int32_t> paths;
  for (const AcceptEntry* e : hits) {
    paths.insert(e->path_id);
    EXPECT_EQ(e->length, 2);
  }
  EXPECT_EQ(paths, (std::set<int32_t>{0, 2}));
}

TEST_F(PathNfaTest, DescendantAnchorAtRoot) {
  PathNfa nfa;
  nfa.Insert(Path("//b"), 0, 0);
  EXPECT_EQ(Accepted(nfa, "/b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "//b"), (std::set<int32_t>{0}));
  EXPECT_EQ(Accepted(nfa, "/a/c"), (std::set<int32_t>{}));
}

TEST_F(PathNfaTest, TransitionCountsAreConsistent) {
  PathNfa nfa;
  nfa.Insert(Path("/a/b/c"), 0, 0);
  nfa.Insert(Path("/a//d"), 1, 0);
  nfa.Insert(Path("/a/*"), 2, 0);
  EXPECT_GT(nfa.num_transitions(), 4u);
  EXPECT_EQ(nfa.num_accept_entries(), 3u);
}

}  // namespace
}  // namespace xvr
