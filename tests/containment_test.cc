#include <gtest/gtest.h>

#include "common/random.h"
#include "pattern/containment.h"
#include "pattern/path_pattern.h"
#include "pattern/xpath_parser.h"

namespace xvr {
namespace {

class ContainmentTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  PathPattern ParsePath(const std::string& xpath) {
    const Decomposition d = Decompose(Parse(xpath));
    EXPECT_EQ(d.paths.size(), 1u);
    return d.paths[0];
  }
  // containee ⊑ container?
  bool Canon(const std::string& containee, const std::string& container) {
    return ContainsCanonical(Parse(container), Parse(containee), &dict_);
  }
  bool HomC(const std::string& containee, const std::string& container) {
    return ContainsByHomomorphism(Parse(container), Parse(containee));
  }
  LabelDict dict_;
};

TEST_F(ContainmentTest, CanonicalBasics) {
  EXPECT_TRUE(Canon("/a/b", "/a/b"));
  EXPECT_TRUE(Canon("/a/b", "/a//b"));
  EXPECT_FALSE(Canon("/a//b", "/a/b"));
  EXPECT_TRUE(Canon("/a/b/c", "//c"));
  EXPECT_TRUE(Canon("/a[b][c]", "/a[b]"));
  EXPECT_FALSE(Canon("/a[b]", "/a[b][c]"));
  EXPECT_TRUE(Canon("/a/b", "/a/*"));
  EXPECT_FALSE(Canon("/a/*", "/a/b"));
}

TEST_F(ContainmentTest, CanonicalWildcardDepth) {
  EXPECT_TRUE(Canon("/a/x/b", "/a/*/b"));
  EXPECT_FALSE(Canon("/a//b", "/a/*/b"));
  EXPECT_TRUE(Canon("/a/*/b", "/a//b"));
}

TEST_F(ContainmentTest, EquivalentStarSlidesOverDescendant) {
  // The normalization family: a/*//b ≡ a//*/b.
  EXPECT_TRUE(Canon("/a/*//b", "/a//*/b"));
  EXPECT_TRUE(Canon("/a//*/b", "/a/*//b"));
  EXPECT_TRUE(EquivalentCanonical(Parse("/a/*//b"), Parse("/a//*/b"),
                                  &dict_));
}

TEST_F(ContainmentTest, HomomorphismIsSound) {
  // Whenever the hom test says contained, the canonical test must agree.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"/a/b/c", "/a//c"},   {"/a[b][c]/d", "/a[b]/d"},
      {"/a/b", "/*/b"},      {"/s[t]/p", "//s/p"},
      {"/a/b/c/d", "//b//d"}, {"/a[b/c]", "/a[b]"},
  };
  for (const auto& [containee, container] : cases) {
    EXPECT_TRUE(HomC(containee, container)) << containee << " vs " << container;
    EXPECT_TRUE(Canon(containee, container)) << containee << " vs " << container;
  }
}

TEST_F(ContainmentTest, KnownHomIncompleteness) {
  // s//t ⊑ s/* holds semantically (any witness path gives s a child) but
  // no homomorphism exists — the classic gap for {/,//,*} containment the
  // paper's Theorem 3.1 glosses over; VFILTER inherits it (documented in
  // DESIGN.md).
  EXPECT_TRUE(Canon("/s//t", "/s/*"));
  EXPECT_FALSE(HomC("/s//t", "/s/*"));
}

TEST_F(ContainmentTest, PathContainsNormalizesFirst) {
  // Without normalization no homomorphism exists between these equivalent
  // paths; PathContains must still detect containment.
  EXPECT_TRUE(PathContains(ParsePath("/a/*//b"), ParsePath("/a//*/b")));
  EXPECT_TRUE(PathContains(ParsePath("/a//*/b"), ParsePath("/a/*//b")));
  EXPECT_TRUE(PathContains(ParsePath("/s//t"), ParsePath("/s/*//t")));
  EXPECT_FALSE(PathContains(ParsePath("/s/*//t"), ParsePath("/s//t")));
}

TEST_F(ContainmentTest, PathContainsPrefixSemantics) {
  // Longer paths are contained in their prefixes (boolean semantics).
  EXPECT_TRUE(PathContains(ParsePath("/a/b"), ParsePath("/a/b/c")));
  EXPECT_FALSE(PathContains(ParsePath("/a/b/c"), ParsePath("/a/b")));
}

TEST_F(ContainmentTest, CanonicalRootAnchor) {
  EXPECT_TRUE(Canon("/a", "//a"));
  EXPECT_FALSE(Canon("//a", "/a"));
  EXPECT_TRUE(Canon("/b/a", "//a"));
}

// Property sweep: homomorphism containment matches canonical containment on
// random patterns without wildcard-above-descendant interactions (where hom
// is complete), and is never a false positive anywhere.
// ctest names each case by gtest's byte dump of its parameter, so the
// padding is a zeroed member: uninitialized, it changed the ids run to run.
struct SweepParams {
  uint64_t seed;
  bool allow_wildcards;
  uint8_t padding[7] = {};
};
static_assert(sizeof(SweepParams) == 16, "SweepParams has unnamed padding");

class ContainmentSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(ContainmentSweep, HomSoundAgainstCanonical) {
  LabelDict dict;
  const std::vector<LabelId> labels = {dict.Intern("a"), dict.Intern("b"),
                                       dict.Intern("c")};
  Rng rng(GetParam().seed);
  const bool wild = GetParam().allow_wildcards;

  auto random_pattern = [&]() {
    TreePattern p;
    const auto label = [&]() -> LabelId {
      if (wild && rng.NextBool(0.25)) return kWildcardLabel;
      return labels[rng.NextBounded(labels.size())];
    };
    const auto axis = [&]() {
      return rng.NextBool(0.35) ? Axis::kDescendant : Axis::kChild;
    };
    auto root = p.AddRoot(label(), axis());
    std::vector<TreePattern::NodeIndex> nodes = {root};
    const int extra = rng.NextInt(1, 4);
    for (int i = 0; i < extra; ++i) {
      const auto parent = nodes[rng.NextBounded(nodes.size())];
      nodes.push_back(p.AddChild(parent, axis(), label()));
    }
    p.SetAnswer(nodes.back());
    return p;
  };

  int contained = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const TreePattern p = random_pattern();
    const TreePattern q = random_pattern();
    const bool hom = ContainsByHomomorphism(q, p);  // p ⊑ q by hom
    const bool canon = ContainsCanonical(q, p, &dict);
    // Soundness always.
    if (hom) {
      EXPECT_TRUE(canon);
      ++contained;
    }
    // Completeness without wildcards (hom is complete for XP{/,//,[]}).
    if (!wild && canon) {
      EXPECT_TRUE(hom);
    }
  }
  // The sweep should exercise some positive cases.
  EXPECT_GT(contained, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ContainmentSweep,
    ::testing::Values(SweepParams{1, false}, SweepParams{2, false},
                      SweepParams{3, false}, SweepParams{4, true},
                      SweepParams{5, true}, SweepParams{6, true}));

}  // namespace
}  // namespace xvr
