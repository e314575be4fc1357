#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/status.h"
#include "core/engine.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Deadline / CancelToken / QueryLimits primitives.

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMicros(), INT64_MAX);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  const Deadline d = Deadline::AfterMicros(-1);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMicros(), 0);
}

TEST(DeadlineTest, CheckInterruptedReportsCause) {
  QueryLimits limits;
  EXPECT_TRUE(CheckInterrupted(limits, "here").ok());

  limits.deadline = Deadline::AfterMicros(-1);
  EXPECT_EQ(CheckInterrupted(limits, "here").code(),
            StatusCode::kDeadlineExceeded);

  // Cancellation wins over an expired deadline.
  CancelToken token;
  token.Cancel();
  limits.cancel = &token;
  EXPECT_EQ(CheckInterrupted(limits, "here").code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, InterruptTickerChecksOnStride) {
  QueryLimits limits;
  limits.deadline = Deadline::AfterMicros(-1);
  InterruptTicker ticker(limits, /*stride=*/4);
  // First call always checks; the next stride-1 calls are free.
  EXPECT_FALSE(ticker.Tick("loop").ok());
  EXPECT_TRUE(ticker.Tick("loop").ok());
  EXPECT_TRUE(ticker.Tick("loop").ok());
  EXPECT_TRUE(ticker.Tick("loop").ok());
  EXPECT_FALSE(ticker.Tick("loop").ok());
}

// ---------------------------------------------------------------------------
// Engine-level limits. A small document with two independent view targets:
// /r/s/p (two results) and /r/t/u (one result).

class FaultToleranceTest : public ::testing::Test {
 protected:
  static XmlTree MakeDoc() {
    auto r = ParseXml("<r><s><p/><q/></s><s><p/></s><t><u/></t></r>");
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }
  FaultToleranceTest() : engine_(MakeDoc()) {}

  TreePattern Parse(const std::string& xpath) {
    auto r = engine_.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  void AddViews(const std::vector<std::string>& xpaths) {
    for (const std::string& v : xpaths) {
      auto id = engine_.AddView(Parse(v));
      ASSERT_TRUE(id.ok()) << v << ": " << id.status();
    }
  }

  Engine engine_;
};

TEST_F(FaultToleranceTest, ExpiredDeadlineFailsEveryStrategy) {
  AddViews({"/r/s/p", "/r/t/u"});
  const TreePattern q = Parse("/r/s/p");
  QueryLimits limits;
  limits.deadline = Deadline::AfterMicros(-1);
  for (AnswerStrategy strategy : kAllAnswerStrategies) {
    auto a = engine_.AnswerQuery(q, strategy, limits);
    ASSERT_FALSE(a.ok()) << AnswerStrategyName(strategy);
    EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded)
        << AnswerStrategyName(strategy) << ": " << a.status();
  }
}

TEST_F(FaultToleranceTest, CancelTokenFailsEveryStrategy) {
  AddViews({"/r/s/p", "/r/t/u"});
  const TreePattern q = Parse("/r/s/p");
  CancelToken token;
  token.Cancel();
  QueryLimits limits;
  limits.cancel = &token;
  for (AnswerStrategy strategy : kAllAnswerStrategies) {
    auto a = engine_.AnswerQuery(q, strategy, limits);
    ASSERT_FALSE(a.ok()) << AnswerStrategyName(strategy);
    EXPECT_EQ(a.status().code(), StatusCode::kCancelled)
        << AnswerStrategyName(strategy) << ": " << a.status();
  }
}

TEST_F(FaultToleranceTest, CandidateBudgetExhausts) {
  // Two views pass VFILTER for /r/s/p; a budget of one trips.
  AddViews({"/r/s/p", "//s/p"});
  const TreePattern q = Parse("/r/s/p");
  QueryLimits limits;
  limits.max_candidates = 1;
  for (AnswerStrategy strategy : {AnswerStrategy::kMinimumFiltered,
                                  AnswerStrategy::kHeuristicFiltered}) {
    auto a = engine_.AnswerQuery(q, strategy, limits);
    ASSERT_FALSE(a.ok()) << AnswerStrategyName(strategy);
    EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted)
        << a.status();
  }
  // A budget that fits succeeds.
  limits.max_candidates = 2;
  auto a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->codes.size(), 2u);
}

TEST_F(FaultToleranceTest, ResultBudgetExhaustsOnBaseAndViewPaths) {
  AddViews({"/r/s/p"});
  const TreePattern q = Parse("/r/s/p");  // two result nodes
  QueryLimits limits;
  limits.max_result_codes = 1;
  for (AnswerStrategy strategy : {AnswerStrategy::kBaseNodeIndex,
                                  AnswerStrategy::kHeuristicFiltered}) {
    auto a = engine_.AnswerQuery(q, strategy, limits);
    ASSERT_FALSE(a.ok()) << AnswerStrategyName(strategy);
    EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted)
        << a.status();
  }
  limits.max_result_codes = 2;
  auto a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->codes.size(), 2u);
}

TEST_F(FaultToleranceTest, JoinWidthBudgetExhausts) {
  AddViews({"/r/s/p"});  // two fragments feed the join
  const TreePattern q = Parse("/r/s/p");
  QueryLimits limits;
  limits.max_join_fragments = 1;
  auto a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted) << a.status();
  limits.max_join_fragments = 2;
  a = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->codes.size(), 2u);
}

// ---------------------------------------------------------------------------
// Graceful degradation: when the exhaustive-selection phase runs out of
// room, the planner falls back to the greedy heuristic and the query still
// answers — correctly, with the degradation recorded in the stats.

TEST(DegradationTest, OversizedLeafUniverseDegradesToGreedy) {
  // 20 predicate leaves + the answer overflow the exact set-cover DP's
  // 20-bit universe; MN/MV must degrade instead of failing.
  TreePattern q;
  const std::unique_ptr<Engine> engine = NewOversizedLeafEngine(&q);
  auto bn = engine->AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  ASSERT_EQ(bn->codes.size(), 1u);
  for (AnswerStrategy strategy : {AnswerStrategy::kMinimumNoFilter,
                                  AnswerStrategy::kMinimumFiltered}) {
    auto a = engine->AnswerQuery(q, strategy);
    ASSERT_TRUE(a.ok()) << AnswerStrategyName(strategy) << ": " << a.status();
    EXPECT_TRUE(a->stats.degraded_selection) << AnswerStrategyName(strategy);
    EXPECT_EQ(a->codes, bn->codes) << AnswerStrategyName(strategy);
  }
}

TEST_F(FaultToleranceTest, ZeroSliceForcesGreedyFallback) {
  TreePattern q;
  const std::unique_ptr<Engine> engine = NewOversizedLeafEngine(&q);
  auto bn = engine->AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  auto degraded = engine->AnswerQuery(q, AnswerStrategy::kMinimumFiltered);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->stats.degraded_selection);
  EXPECT_EQ(degraded->codes, bn->codes);

  // The overflow depends on the query alone, so the degraded plan is
  // cached like any other: a second call hits it.
  auto again = engine->AnswerQuery(q, AnswerStrategy::kMinimumFiltered);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->stats.plan_cache_hit);
  EXPECT_TRUE(again->stats.degraded_selection);
  EXPECT_EQ(again->codes, degraded->codes);
}

// ---------------------------------------------------------------------------
// Batch failure isolation.

TEST_F(FaultToleranceTest, BatchIsolatesPerSlotFailures) {
  AddViews({"/r/s/p", "/r/t/u"});
  std::vector<TreePattern> queries;
  queries.push_back(Parse("/r/s/p"));
  queries.push_back(Parse("/r/x"));  // no view covers x: unanswerable
  queries.push_back(Parse("/r/t/u"));
  std::vector<Result<Engine::Answer>> results;
  for (const TreePattern& q : queries) {
    results.push_back(
        engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered));
  }
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0]->codes.size(), 2u);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotAnswerable);
  ASSERT_TRUE(results[2].ok()) << results[2].status();
  EXPECT_EQ(results[2]->codes.size(), 1u);
}

TEST_F(FaultToleranceTest, BatchDeadlineFailsEverySlotCleanly) {
  AddViews({"/r/s/p", "/r/t/u"});
  std::vector<TreePattern> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(Parse(i % 2 == 0 ? "/r/s/p" : "/r/t/u"));
  }
  QueryLimits limits;
  limits.deadline = Deadline::AfterMicros(-1);
  for (const TreePattern& q : queries) {
    auto r = engine_.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// ---------------------------------------------------------------------------
// Crash-safe persistence: corruption of the stored image degrades service
// (quarantine, rebuild) instead of failing the load.

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// Engine images once stored VFILTER under vfilter/image; LoadState now
// never reads that key. The filter of PersistenceFaultTest's two views, as
// the last format's save wrote it (hex).
std::string SavedVFilterImage() {
  return FromHex(
      "544c46560400000004010000000000000300000000000000020000000000000001000000"
      "010000000100000006000000000000000000000000000000010000000000000001000000"
      "010000000000000000000000000000000000000000000000020000000100000001000000"
      "020000000400000001000000040000000000000000000000000000000000000000000000"
      "010000000200000001000000030000000000000000000000020000000000000000000000"
      "000000000000000001000000000000000000000003000000000000000000000000000000"
      "010000000500000001000000050000000000000000000000020000000000000000000000"
      "00000000000000000100000001000000000000000300000035d07a7ec6fe00c4");
}

class PersistenceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath("xvr_fault_tolerance_state.bin");
    auto doc = ParseXml("<r><s><p/><q/></s><s><p/></s><t><u/></t></r>");
    ASSERT_TRUE(doc.ok());
    Engine engine(std::move(doc).value());
    for (const char* v : {"/r/s/p", "/r/t/u"}) {
      auto p = engine.Parse(v);
      ASSERT_TRUE(p.ok());
      auto id = engine.AddView(std::move(p).value());
      ASSERT_TRUE(id.ok());
      view_ids_.push_back(*id);
    }
    ASSERT_TRUE(engine.SaveState(path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Loads the saved image, lets `mutate` edit the key-value pairs, saves it
  // back (with a fresh checksum — this models logical corruption that a
  // byte-level checksum cannot catch, e.g. bit rot before the save).
  void MutateImage(const std::function<void(KvStore*)>& mutate) {
    KvStore kv;
    ASSERT_TRUE(kv.LoadFromFile(path_).ok());
    mutate(&kv);
    ASSERT_TRUE(kv.SaveToFile(path_).ok());
  }

  static void ExpectAnswers(Engine& engine, const std::string& xpath,
                            size_t num_codes) {
    auto q = engine.Parse(xpath);
    ASSERT_TRUE(q.ok());
    auto hv = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(hv.ok()) << xpath << ": " << hv.status();
    auto bn = engine.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(bn.ok());
    EXPECT_EQ(hv->codes, bn->codes) << xpath;
    EXPECT_EQ(hv->codes.size(), num_codes) << xpath;
  }


  // Reloads the fixture's image with vfilter/image set to `image`
  // (std::nullopt: the key is absent) and checks that the engine serves
  // exactly the stored views and indexes a view added after the load.
  void ExpectLoadServesCatalog(const std::optional<std::string>& image) {
    auto original = ReadFileToString(path_);
    ASSERT_TRUE(original.ok());
    MutateImage([&image](KvStore* kv) {
      // SaveState no longer writes the key.
      ASSERT_EQ(kv->Get("vfilter/image"), nullptr);
      if (image.has_value()) kv->Put("vfilter/image", *image);
    });
    auto loaded = Engine::LoadState(path_);
    ASSERT_TRUE(WriteFileAtomic(path_, *original).ok());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    Engine& engine = **loaded;
    EXPECT_TRUE(engine.quarantined_view_ids().empty());
    EXPECT_EQ(engine.view_ids(), view_ids_);
    ExpectAnswers(engine, "/r/s/p", 2);
    ExpectAnswers(engine, "/r/t/u", 1);
    auto view = engine.Parse("/r/s/q");
    ASSERT_TRUE(view.ok());
    auto id = engine.AddView(std::move(view).value());
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(*id, 2);
    ExpectAnswers(engine, "/r/s/q", 1);
  }

  std::string path_;
  std::vector<int32_t> view_ids_;  // {0, 1}: /r/s/p then /r/t/u
};

TEST_F(PersistenceFaultTest, CorruptFragmentQuarantinesOnlyThatView) {
  // Corrupt the first fragment of view 0 (/r/s/p).
  MutateImage([](KvStore* kv) {
    std::string victim;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string& key, const std::string&) {
                     victim = key;
                     return false;
                   });
    ASSERT_FALSE(victim.empty());
    kv->Put(victim, "definitely not a fragment");
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Engine& engine = **loaded;
  EXPECT_EQ(engine.quarantined_view_ids(), std::vector<int32_t>{0});
  EXPECT_TRUE(engine.IsViewQuarantined(0));
  // The quarantined view is out of serving but kept for diagnosis.
  EXPECT_EQ(engine.view_ids(), std::vector<int32_t>{1});
  EXPECT_NE(engine.view(0), nullptr);
  // The surviving view still answers; the lost one is now unanswerable.
  ExpectAnswers(engine, "/r/t/u", 1);
  auto q = engine.Parse("/r/s/p");
  ASSERT_TRUE(q.ok());
  auto a = engine.AnswerQuery(*q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kNotAnswerable);
  // Base strategies are unaffected by view corruption.
  auto bn = engine.AnswerQuery(*q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(bn->codes.size(), 2u);
}

TEST_F(PersistenceFaultTest, PaddedFragmentQuarantinesThatView) {
  // A well-formed image of view 0's first fragment with one byte appended.
  MutateImage([](KvStore* kv) {
    std::string victim;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string& key, const std::string&) {
                     victim = key;
                     return false;
                   });
    ASSERT_FALSE(victim.empty());
    kv->Put(victim, *kv->Get(victim) + '\0');
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Engine& engine = **loaded;
  EXPECT_EQ(engine.quarantined_view_ids(), std::vector<int32_t>{0});
  ExpectAnswers(engine, "/r/t/u", 1);
}

TEST_F(PersistenceFaultTest, QuarantineSurvivesSaveLoadRoundTrip) {
  MutateImage([](KvStore* kv) {
    std::string victim;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string& key, const std::string&) {
                     victim = key;
                     return false;
                   });
    ASSERT_FALSE(victim.empty());
    kv->Put(victim, "garbage");
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE((*loaded)->SaveState(path_).ok());
  auto reloaded = Engine::LoadState(path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  Engine& engine = **reloaded;
  EXPECT_EQ(engine.quarantined_view_ids(), std::vector<int32_t>{0});
  ExpectAnswers(engine, "/r/t/u", 1);
}

// LoadState builds the filter from the stored views, so whatever an old
// vfilter/image key holds, the filter indexes exactly the serving views.
// The images below (hex) are what the last format wrote for this fixture's
// document under other catalogs.
TEST_F(PersistenceFaultTest, CorruptVFilterImageRebuildsFromCatalog) {
  // The filter of an engine holding view 0 (/r/s/p) alone.
  const std::string without_view_1 = FromHex(
      "544c465604000000a8000000000000000300000000000000010000000000000001000000"
      "040000000000000000000000000000000100000000000000010000000100000000000000"
      "000000000000000000000000000000000100000001000000010000000200000000000000"
      "000000000000000000000000000000000100000002000000010000000300000000000000"
      "000000000200000000000000000000000000000000000000010000000000000000000000"
      "0300000087b91262520660fe");
  // The filter of an engine that also holds /r/s/q as view 2.
  const std::string extra_view_2 = FromHex(
      "544c4656040000003c010000000000000300000000000000030000000000000001000000"
      "010000000100000002000000010000000700000000000000000000000000000001000000"
      "000000000100000001000000000000000000000000000000000000000000000002000000"
      "010000000100000002000000040000000100000004000000000000000000000000000000"
      "000000000000000002000000020000000100000003000000030000000100000006000000"
      "000000000000000002000000000000000000000000000000000000000100000000000000"
      "000000000300000000000000000000000000000001000000050000000100000005000000"
      "000000000000000002000000000000000000000000000000000000000100000001000000"
      "000000000300000002000000000000000000000000000000000000000100000002000000"
      "0000000003000000733c859c56c6d3d0");
  const std::pair<const char*, std::string> inputs[] = {
      {"saved", SavedVFilterImage()},
      {"garbage", "not a vfilter image"},
      {"without view 1", without_view_1},
      {"extra view 2", extra_view_2}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.first);
    ExpectLoadServesCatalog(input.second);
  }
}

TEST_F(PersistenceFaultTest, MissingVFilterImageRebuildsFromCatalog) {
  ExpectLoadServesCatalog(std::nullopt);
}

// An image whose VFILTER was built without prefix sharing or with the
// literal NUM(V) counter, configurations the engine no longer has: the
// load rebuilds the filter from the catalog and answers as before.
TEST_F(PersistenceFaultTest, RemovedVFilterConfigurationRebuildsFromCatalog) {
  const std::string saved = SavedVFilterImage();
  // Options flags, the payload's first word: normalize 1, shared prefixes
  // 2, counter mode 4. The payload sits between a 16-byte header and an
  // FNV-1a checksum of it.
  for (const uint32_t flags : {1u, 7u}) {
    SCOPED_TRACE(flags == 1u ? "unshared" : "counter mode");
    std::string payload = saved.substr(16, saved.size() - 24);
    uint32_t saved_flags = 0;
    std::memcpy(&saved_flags, payload.data(), 4);
    ASSERT_EQ(saved_flags, 3u);
    std::memcpy(payload.data(), &flags, 4);
    const uint64_t checksum = Fnv1a(payload);
    std::string image = saved.substr(0, 16) + payload;
    image.append(reinterpret_cast<const char*>(&checksum), 8);
    ExpectLoadServesCatalog(image);
  }
}

TEST_F(PersistenceFaultTest, TornImageIsRejectedByChecksum) {
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path_, bytes->substr(0, bytes->size() - 1)).ok());
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// Every id the image names must be one its catalog issued, below
// meta/next_view_id, before it indexes a catalog table. An image that
// breaks this, even under a valid checksum, loads as PARSE_ERROR: never an
// abort, and never a table sized to a forged id.
TEST_F(PersistenceFaultTest, ViewIdNotBelowNextViewIdIsRejected) {
  MutateImage([](KvStore* kv) { kv->Put("meta/next_view_id", "1"); });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceFaultTest, HugeViewIdIsRejected) {
  MutateImage([](KvStore* kv) { kv->Put("view/2000000000", "/r/s/p"); });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceFaultTest, ViewsWithoutNextViewIdAreRejected) {
  MutateImage([](KvStore* kv) { kv->Delete("meta/next_view_id"); });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceFaultTest, FragmentOfUnissuedViewIdIsRejected) {
  MutateImage([](KvStore* kv) {
    std::string fragment;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string&, const std::string& value) {
                     fragment = value;
                     return false;
                   });
    ASSERT_FALSE(fragment.empty());
    kv->Put("frag/2000000000/00000000", fragment);
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

// An issued id the image holds no view for is rejected the same way, for
// fragments and for view markers.
TEST_F(PersistenceFaultTest, FragmentOfUnknownViewIsRejected) {
  MutateImage([](KvStore* kv) {
    std::string fragment;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string&, const std::string& value) {
                     fragment = value;
                     return false;
                   });
    ASSERT_FALSE(fragment.empty());
    kv->Put("meta/next_view_id", "5");
    kv->Put("frag/0000000003/00000000", fragment);
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(PersistenceFaultTest, MarkerOfUnknownViewIsRejected) {
  for (const char* key : {"viewmeta/7", "viewmeta/1x"}) {
    MutateImage([key](KvStore* kv) { kv->Put(key, "quarantined"); });
    auto loaded = Engine::LoadState(path_);
    ASSERT_FALSE(loaded.ok()) << key;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << key;
    MutateImage([key](KvStore* kv) { kv->Delete(key); });
  }
}

// Every view is fully materialized, so "quarantined" is the one marker an
// image may carry. The retired codes-only and pattern-only markers are
// rejected like any other value.
TEST_F(PersistenceFaultTest, UnknownViewMarkerIsRejected) {
  for (const char* value : {"codes-only", "pattern-only", "junk"}) {
    MutateImage([value](KvStore* kv) { kv->Put("viewmeta/0", value); });
    auto loaded = Engine::LoadState(path_);
    ASSERT_FALSE(loaded.ok()) << value;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << value;
  }
}

// A stored view that loads no fragments must carry the quarantine marker.
TEST_F(PersistenceFaultTest, StoredViewWithoutFragmentsIsRejected) {
  MutateImage([](KvStore* kv) {
    std::vector<std::string> keys;
    kv->ScanPrefix("frag/0000000000/",
                   [&](const std::string& key, const std::string&) {
                     keys.push_back(key);
                     return true;
                   });
    ASSERT_FALSE(keys.empty());
    for (const std::string& key : keys) {
      kv->Delete(key);
    }
  });
  auto loaded = Engine::LoadState(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  MutateImage([](KvStore* kv) { kv->Put("viewmeta/0", "quarantined"); });
  loaded = Engine::LoadState(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->quarantined_view_ids(), std::vector<int32_t>{0});
}

// meta/wal_seq parses as a decimal u64 below 2^64-1 or the load fails: a
// misread or maximal checkpoint would skip acked WAL records, and the next
// append would wrap to sequence 0.
TEST_F(PersistenceFaultTest, MalformedWalCheckpointIsRejected) {
  for (const char* value : {"-1", "12abc", "", "abc", " 1",
                            "99999999999999999999999",
                            "18446744073709551615"}) {
    MutateImage([value](KvStore* kv) { kv->Put("meta/wal_seq", value); });
    auto loaded = Engine::LoadState(path_);
    ASSERT_FALSE(loaded.ok()) << "'" << value << "'";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << value;
  }
  MutateImage([](KvStore* kv) { kv->Delete("meta/wal_seq"); });
  EXPECT_TRUE(Engine::LoadState(path_).ok());
}

// A checkpoint above the true one (0) must never make recovery skip the
// WAL's acked add: "-1" once parsed as 2^64-1, and "5" parses but claims
// an add of view 2, an id the image (next id 2) never issued.
TEST_F(PersistenceFaultTest, MisreadWalCheckpointNeverDropsAnAckedAdd) {
  const std::string wal_path = TestTempPath("xvr_fault_tolerance_wal.bin");
  std::remove(wal_path.c_str());
  {
    auto wal = CatalogWal::Open(wal_path, /*last_seq=*/0);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 2, "/r/s").ok());
  }
  {
    auto recovered = Engine::LoadStateWithWal(path_, wal_path);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_NE((*recovered)->view(2), nullptr);
  }
  for (const char* value : {"-1", "5"}) {
    MutateImage([value](KvStore* kv) { kv->Put("meta/wal_seq", value); });
    auto recovered = Engine::LoadStateWithWal(path_, wal_path);
    if (recovered.ok()) {
      EXPECT_NE((*recovered)->view(2), nullptr)
          << value << ": the acked add was dropped";
    } else {
      EXPECT_EQ(recovered.status().code(), StatusCode::kParseError) << value;
    }
  }
  std::remove(wal_path.c_str());
}

TEST(FileUtilTest, WriteFileAtomicReplacesAndLeavesNoTemp) {
  const std::string path = TestTempPath("xvr_atomic_write.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "one").ok());
  auto first = ReadFileToString(path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "one");
  ASSERT_TRUE(WriteFileAtomic(path, "two").ok());
  auto second = ReadFileToString(path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "two");
  // The temporary sibling must be gone after the rename.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xvr
