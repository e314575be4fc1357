#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cow_table.h"
#include "common/file_util.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace xvr {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "PARSE_ERROR: bad token");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= 7; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status::InvalidArgument("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  XVR_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(Result, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(3, &out).code(), StatusCode::kInvalidArgument);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.NextInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, BoolProbabilityExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, WeightedRespectsZeros) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(StringUtil, SplitKeepsEmptyPieces) {
  const auto pieces = Split("a..b", '.');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringUtil, SplitSingle) {
  const auto pieces = Split("abc", '.');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "abc");
}

TEST(StringUtil, JoinRoundTrips) {
  EXPECT_EQ(Join({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("frag/12", "frag/"));
  EXPECT_FALSE(StartsWith("fr", "frag/"));
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(HumanBytes(12), "12 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

// --- RetryPolicy backoff jitter -------------------------------------------

TEST(RetryBackoff, FirstAttemptNeverSleeps) {
  RetryPolicy retry;
  Rng rng(1);
  EXPECT_EQ(RetryBackoffMicros(retry, 1, &rng), 0);
}

TEST(RetryBackoff, ZeroJitterReproducesDeterministicSchedule) {
  RetryPolicy retry;
  retry.base_backoff_micros = 200;
  retry.max_backoff_micros = 5000;
  retry.jitter = 0.0;
  Rng rng(1);
  EXPECT_EQ(RetryBackoffMicros(retry, 2, &rng), 200);
  EXPECT_EQ(RetryBackoffMicros(retry, 3, &rng), 400);
  EXPECT_EQ(RetryBackoffMicros(retry, 4, &rng), 800);
  EXPECT_EQ(RetryBackoffMicros(retry, 7, &rng), 5000);   // capped
  EXPECT_EQ(RetryBackoffMicros(retry, 40, &rng), 5000);  // no overflow
}

TEST(RetryBackoff, JitterStaysInWindowAndNeverExceedsDeterministic) {
  RetryPolicy retry;
  retry.base_backoff_micros = 1000;
  retry.max_backoff_micros = 100'000;
  retry.jitter = 0.25;
  Rng rng(7);
  for (int attempt = 2; attempt <= 6; ++attempt) {
    const int64_t full = 1000LL << (attempt - 2);
    for (int i = 0; i < 200; ++i) {
      const int64_t backoff = RetryBackoffMicros(retry, attempt, &rng);
      EXPECT_LE(backoff, full);
      EXPECT_GE(backoff, full - full / 4);
    }
  }
}

TEST(RetryBackoff, SeededScheduleIsReproducible) {
  RetryPolicy retry;
  retry.jitter = 0.5;
  // Two RNGs with the policy's seed draw the identical jittered schedule
  // (what RetryPolicy::jitter_seed != 0 pins inside WithRetry)...
  Rng a(12345);
  Rng b(12345);
  for (int attempt = 2; attempt <= 5; ++attempt) {
    EXPECT_EQ(RetryBackoffMicros(retry, attempt, &a),
              RetryBackoffMicros(retry, attempt, &b));
  }
  // ...while different seeds decorrelate — the thundering-herd fix. With
  // 50% jitter over a 200us window, 4 attempts colliding on all draws is
  // astronomically unlikely under any healthy RNG.
  Rng c(12345);
  Rng d(99999);
  bool differed = false;
  for (int attempt = 2; attempt <= 5; ++attempt) {
    differed |= RetryBackoffMicros(retry, attempt, &c) !=
                RetryBackoffMicros(retry, attempt, &d);
  }
  EXPECT_TRUE(differed);
}

TEST(RetryBackoff, JitterNeverReturnsZeroForRealBackoff) {
  RetryPolicy retry;
  retry.base_backoff_micros = 1;
  retry.jitter = 1.0;  // full-window jitter on a 1us backoff
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(RetryBackoffMicros(retry, 2, &rng), 1);
  }
}

// --- CowTable ---------------------------------------------------------------

std::string ValueOf(int32_t id) {
  std::string value = "v";
  value += std::to_string(id);
  return value;
}

// Ids 0 .. n-1 mapped to "v<id>": with n = 200, four chunks of 64.
CowTable<std::string> FilledTable(int32_t n) {
  CowTable<std::string> table;
  for (int32_t id = 0; id < n; ++id) {
    table.Set(id, ValueOf(id));
  }
  return table;
}

TEST(CowTable, CopySharesEveryChunk) {
  const CowTable<std::string> source = FilledTable(200);
  const CowTable<std::string> copy = source;
  ASSERT_EQ(copy.size(), 200u);
  for (int32_t id = 0; id < 200; ++id) {
    EXPECT_EQ(&copy[id], &source[id]) << id;
  }
}

TEST(CowTable, WriteToCopyClonesOnlyItsChunk) {
  const CowTable<std::string> source = FilledTable(200);
  CowTable<std::string> copy = source;
  copy.Mutable(70) = "changed";
  EXPECT_EQ(copy[70], "changed");
  EXPECT_EQ(source[70], "v70");
  const int32_t chunk =
      static_cast<int32_t>(CowTable<std::string>::kChunkSize);
  for (int32_t id = 0; id < 200; ++id) {
    if (id / chunk == 70 / chunk) {
      // The written chunk is the copy's own clone: same values elsewhere.
      EXPECT_NE(&copy[id], &source[id]) << id;
      if (id != 70) {
        EXPECT_EQ(copy[id], source[id]) << id;
      }
    } else {
      EXPECT_EQ(&copy[id], &source[id]) << id;
    }
  }
  // Later writes to the cloned chunk go to the clone in place.
  const std::string* clone_slot = &copy[71];
  copy.Mutable(71) = "again";
  copy.Set(72, "set");
  EXPECT_EQ(&copy[71], clone_slot);
  EXPECT_EQ(source[71], "v71");
  EXPECT_EQ(source[72], "v72");
}

// The trap for any ownership scheme: the source allocated its chunks, but
// after a copy it must not write them in place any more.
TEST(CowTable, WritingTheSourceAfterACopyLeavesTheCopyUnchanged) {
  CowTable<std::string> source = FilledTable(200);
  const CowTable<std::string> copy = source;
  source.Mutable(5) = "changed";
  source.Set(6, "set");
  EXPECT_TRUE(source.Erase(7));
  source.Set(300, "new chunk");
  EXPECT_EQ(copy[5], "v5");
  EXPECT_EQ(copy[6], "v6");
  ASSERT_TRUE(copy.Contains(7));
  EXPECT_EQ(copy[7], "v7");
  EXPECT_FALSE(copy.Contains(300));
  EXPECT_EQ(copy.size(), 200u);
  // A second generation: the copy of the copy is just as isolated.
  CowTable<std::string> grandchild = copy;
  grandchild.Mutable(100) = "grandchild";
  EXPECT_EQ(copy[100], "v100");
  EXPECT_EQ(source[100], "v100");
  EXPECT_EQ(&copy[0], &grandchild[0]);
}

TEST(CowTable, EraseSizeAndAscendingIterationOverHoles) {
  CowTable<std::string> table;
  EXPECT_TRUE(table.empty());
  for (const int32_t id : {200, 3, 0, 64, 65}) {
    table.Set(id, ValueOf(id));
  }
  EXPECT_EQ(table.size(), 5u);
  table.Set(3, "replaced");  // replacing keeps the size
  EXPECT_EQ(table.size(), 5u);
  EXPECT_TRUE(table.Erase(3));
  EXPECT_FALSE(table.Erase(3));
  EXPECT_FALSE(table.Erase(1));
  // Erasing both entries of chunk 1 releases it; iteration skips it.
  EXPECT_TRUE(table.Erase(64));
  EXPECT_TRUE(table.Erase(65));
  EXPECT_EQ(table.size(), 2u);
  std::vector<std::pair<int32_t, std::string>> walked;
  for (const auto& [id, value] : table) {
    walked.emplace_back(id, value);
  }
  const std::vector<std::pair<int32_t, std::string>> want = {{0, "v0"},
                                                             {200, "v200"}};
  EXPECT_EQ(walked, want);
  // Ids past the end, in a released chunk, in a hole, or negative.
  for (const int32_t id : {201, 255, 256, 2000000000, 64, 1, -1}) {
    EXPECT_EQ(table.Find(id), nullptr) << id;
    EXPECT_FALSE(table.Contains(id)) << id;
  }
  ASSERT_NE(table.Find(200), nullptr);
  EXPECT_EQ(*table.Find(200), "v200");
  // An emptied table iterates nothing.
  EXPECT_TRUE(table.Erase(0));
  EXPECT_TRUE(table.Erase(200));
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.begin() == table.end());
}

TEST(CowTable, MoveHandsOverTheChunks) {
  CowTable<std::string> source = FilledTable(100);
  const std::string* slot = &source[10];
  CowTable<std::string> moved = std::move(source);
  EXPECT_EQ(&moved[10], slot);
  moved.Mutable(10) = "in place";  // the moved-to table still owns it
  EXPECT_EQ(&moved[10], slot);
  EXPECT_EQ(moved.size(), 100u);
}

}  // namespace
}  // namespace xvr
