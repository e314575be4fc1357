// Chaos soak harness for online catalog evolution: concurrent readers vs a
// view mutator on one engine (snapshot isolation, run under TSan in CI), a
// crash-recovery sweep that truncates the catalog WAL at every byte offset
// and differential-checks the recovered engine, and graceful degradation at
// every WAL fault point.
//
// The default run is a few hundred milliseconds so plain ctest stays fast;
// set XVR_SOAK_MS (the CI soak job uses a few seconds) to stretch the
// concurrent phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/validate.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/mutex.h"
#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "storage/catalog_wal.h"
#include "test_util.h"
#include "workload/query_gen.h"
#include "workload/workloads.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

int SoakMillis() {
  const char* env = std::getenv("XVR_SOAK_MS");
  return env != nullptr ? std::atoi(env) : 250;
}

// A document with enough repetition that answering does real join work but
// tests stay fast.
XmlTree SoakDoc() {
  std::string xml = "<r>";
  for (int i = 0; i < 30; ++i) {
    switch (i % 3) {
      case 0:
        xml += "<s><p/><f/></s>";
        break;
      case 1:
        xml += "<s><p/></s>";
        break;
      default:
        xml += "<s><f/></s>";
        break;
    }
  }
  xml += "<t><u/></t><t><u/><u/></t></r>";
  auto parsed = ParseXml(xml);
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

XmlTree TinyDoc() {
  auto parsed = ParseXml("<r><s><p/><q/></s><s><p/></s><t><u/></t></r>");
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TreePattern Parse(Engine& engine, const std::string& xpath) {
  auto r = engine.Parse(xpath);
  EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Snapshot isolation under live traffic.

TEST(CatalogSoak, ConcurrentReadersUnderChurn) {
  Engine engine(SoakDoc());
  // Core views stay for the whole run, so every probe query remains
  // answerable no matter what the mutator is doing.
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/f")).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s")).ok());

  // Ground truth from the catalog-independent base strategy, computed
  // before any concurrency starts.
  const std::vector<std::string> probe_xpaths = {"/r/s[f]/p", "/r/s/p",
                                                 "/r/s/f", "/r/s[p]/f"};
  std::vector<TreePattern> probes;
  std::vector<std::vector<DeweyCode>> expected;
  for (const std::string& xpath : probe_xpaths) {
    probes.push_back(Parse(engine, xpath));
    auto truth =
        engine.AnswerQuery(probes.back(), AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(truth.ok()) << xpath << ": " << truth.status();
    expected.push_back(truth->codes);
  }

  constexpr AnswerStrategy kReaderStrategies[] = {
      AnswerStrategy::kHeuristicFiltered, AnswerStrategy::kMinimumFiltered,
      AnswerStrategy::kHeuristicSmallFragments};

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> mutations{0};
  std::atomic<int> mismatches{0};
  Mutex error_mu;
  std::string first_error;
  auto report = [&](const std::string& what) {
    mismatches.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&error_mu);
    if (first_error.empty()) {
      first_error = what;
    }
  };

  constexpr int kReaders = 8;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      uint64_t i = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t probe = i % probes.size();
        const AnswerStrategy strategy =
            kReaderStrategies[(i / probes.size()) % 3];
        auto answer = engine.AnswerQuery(probes[probe], strategy);
        if (!answer.ok()) {
          report("reader " + std::to_string(t) + " query " +
                 probe_xpaths[probe] + ": " + answer.status().ToString());
        } else if (answer->codes != expected[probe]) {
          report("reader " + std::to_string(t) + " query " +
                 probe_xpaths[probe] + ": wrong answer under churn");
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // The mutator churns extra views — adding views can only widen the
  // planner's options, and removing these never makes a probe unanswerable.
  threads.emplace_back([&] {
    const std::vector<std::string> churn_xpaths = {"/r/s[p]/f", "/r/s[f]/p",
                                                   "/r/t/u", "/r/s[f]"};
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<int32_t> added;
      for (const std::string& xpath : churn_xpaths) {
        const Result<int32_t> id = engine.AddView(Parse(engine, xpath));
        if (!id.ok()) {
          report("mutator add: " + id.status().ToString());
          continue;
        }
        added.push_back(*id);
      }
      for (const int32_t id : added) {
        const Status removed = engine.RemoveView(id);
        if (!removed.ok()) {
          report("mutator remove: " + removed.ToString());
        }
      }
      mutations.fetch_add(added.size() * 2, std::memory_order_relaxed);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(SoakMillis()));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(mismatches.load(), 0) << first_error;
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(mutations.load(), 0u);
  // The churn really moved the catalog, and it ended where it started:
  // only the three core views remain.
  EXPECT_GT(engine.catalog_version(), 3u);
  EXPECT_EQ(engine.num_views(), 3u);
  // Plan-cache accounting stayed exact under the full concurrent run:
  // every lookup one hit or miss, every swept entry classified once.
  ASSERT_NE(engine.plan_cache(), nullptr);
  const PlanCache::Stats cache_stats = engine.plan_cache()->stats();
  const Status stats_ok = ValidatePlanCacheStats(cache_stats);
  EXPECT_TRUE(stats_ok.ok()) << stats_ok;
  EXPECT_GT(cache_stats.publish_entries_swept, 0u);
}

// Differential churn soak for targeted invalidation: views whose labels
// never appear in the probe queries are added and removed in a tight loop.
// Every publication must re-stamp the cached probe plans (label bloom
// rejects the churn views), so the probes keep hitting the cache the whole
// time — the over-invalidation this PR fixes would force a replan per
// mutation.
TEST(CatalogSoak, UnrelatedChurnKeepsPlansCached) {
  Engine engine(TinyDoc());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  const TreePattern q = Parse(engine, "/r/s/p");
  auto truth = engine.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(truth.ok());
  auto prime = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(prime.ok()) << prime.status();
  ASSERT_FALSE(prime->stats.plan_cache_hit);

  constexpr int kRounds = 16;
  for (int round = 0; round < kRounds; ++round) {
    // 't'/'u' appear in no probe, so the bloom proves non-admission and
    // the removal delta misses every dependency set.
    auto id = engine.AddView(Parse(engine, "/r/t/u"));
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(engine.RemoveView(*id).ok());
    auto answer = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->stats.plan_cache_hit) << "round " << round;
    EXPECT_EQ(answer->codes, truth->codes) << "round " << round;
  }

  ASSERT_NE(engine.plan_cache(), nullptr);
  const PlanCache::Stats stats = engine.plan_cache()->stats();
  // One base-truth plan + one HV plan, swept by 2 publications per round,
  // all surviving; not a single invalidation or lazy stale drop.
  EXPECT_EQ(stats.survived_publications,
            static_cast<uint64_t>(2 * kRounds * 2));
  EXPECT_EQ(stats.dep_invalidations, 0u);
  EXPECT_EQ(stats.fingerprint_invalidations, 0u);
  EXPECT_EQ(stats.stale_drops, 0u);
  EXPECT_EQ(stats.misses, 2u);  // the two priming misses only
  const Status stats_ok = ValidatePlanCacheStats(stats);
  EXPECT_TRUE(stats_ok.ok()) << stats_ok;
}

TEST(CatalogSoak, PinnedSnapshotSurvivesMutation) {
  Engine engine(TinyDoc());
  auto id = engine.AddView(Parse(engine, "/r/s/p"));
  ASSERT_TRUE(id.ok());
  const CatalogRef pinned = engine.Catalog();
  ASSERT_TRUE(engine.RemoveView(*id).ok());
  // The live catalog moved on...
  EXPECT_EQ(engine.view(*id), nullptr);
  EXPECT_GT(engine.catalog_version(), pinned->version);
  // ...but the pinned snapshot still holds the view, pattern and fragments.
  EXPECT_NE(pinned->view(*id), nullptr);
  EXPECT_TRUE(pinned->fragments.HasView(*id));
  EXPECT_EQ(pinned->view_ids(), std::vector<int32_t>{*id});
}

bool SameState(const PathNfa::State& a, const PathNfa::State& b) {
  const auto same_entry = [](const AcceptEntry& x, const AcceptEntry& y) {
    return x.view_id == y.view_id && x.path_id == y.path_id &&
           x.length == y.length && x.slot == y.slot;
  };
  return a.label_trans == b.label_trans && a.star_trans == b.star_trans &&
         a.loop_state == b.loop_state && a.is_loop == b.is_loop &&
         a.is_accepting == b.is_accepting &&
         std::equal(a.accepts.begin(), a.accepts.end(), b.accepts.begin(),
                    b.accepts.end(), same_entry);
}

// Snapshot isolation across table chunks: with 200 views every id table
// spans four chunks of 64, and the NFA more than two. A pinned snapshot
// keeps every pattern, fragment vector, NFA state and filter result while
// views are added (to the last chunk) and removed (from the first and a
// middle one); the live snapshot still shares every chunk no mutation
// wrote.
TEST(CatalogSoak, PinnedSnapshotIsolatedAcrossTableChunks) {
  Engine engine(SoakDoc());
  // Distinct paths of one to three steps, each kept if it has answers.
  std::vector<std::string> xpaths;
  std::vector<std::string> frontier = {""};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<std::string> longer;
    for (const std::string& prefix : frontier) {
      for (const char* axis : {"/", "//"}) {
        for (const char* label : {"r", "s", "t", "p", "f", "u", "*"}) {
          longer.push_back(prefix + axis + label);
        }
      }
    }
    xpaths.insert(xpaths.end(), longer.begin(), longer.end());
    frontier = std::move(longer);
  }
  std::vector<std::string> added;
  for (size_t i = 0; added.size() < 200 && i < xpaths.size(); ++i) {
    if (engine.AddView(Parse(engine, xpaths[i])).ok()) {
      added.push_back(xpaths[i]);
    }
  }
  ASSERT_EQ(added.size(), 200u);
  const CatalogRef pinned = engine.Catalog();
  const CowTable<PathNfa::State>& pinned_states =
      pinned->vfilter.nfa().states();
  ASSERT_GT(pinned_states.size(), 2 * CowTable<PathNfa::State>::kChunkSize);

  std::vector<std::string> keys;
  std::vector<const std::vector<Fragment>*> fragments;
  for (int32_t id = 0; id < 200; ++id) {
    ASSERT_NE(pinned->view(id), nullptr);
    keys.push_back(pinned->view(id)->CanonicalKey());
    fragments.push_back(pinned->fragments.GetView(id));
    ASSERT_NE(fragments.back(), nullptr);
  }
  std::vector<PathNfa::State> states_at_pin;
  for (const auto& [state_id, state] : pinned_states) {
    ASSERT_EQ(static_cast<size_t>(state_id), states_at_pin.size());
    states_at_pin.push_back(state);
  }
  std::vector<TreePattern> queries;
  std::vector<FilterResult> filtered;
  for (const char* q : {"/r/s/p", "/r/s[p]/f", "/r/t/u", "//s/f"}) {
    queries.push_back(Parse(engine, q));
    filtered.push_back(pinned->vfilter.Filter(queries.back()));
  }

  for (const std::string& xpath : {std::string("/r/s[p]/f"),
                                   std::string("/r/s[f]/p"),
                                   std::string("/r[t/u]/s")}) {
    ASSERT_TRUE(engine.AddView(Parse(engine, xpath)).ok()) << xpath;
  }
  ASSERT_TRUE(engine.RemoveView(5).ok());
  ASSERT_TRUE(engine.RemoveView(100).ok());

  // The pinned snapshot reads exactly what it read at pin time.
  ASSERT_EQ(pinned->views.size(), 200u);
  for (int32_t id = 0; id < 200; ++id) {
    const size_t i = static_cast<size_t>(id);
    ASSERT_NE(pinned->view(id), nullptr) << id;
    EXPECT_EQ(pinned->view(id)->CanonicalKey(), keys[i]);
    EXPECT_EQ(pinned->fragments.GetView(id), fragments[i]);
  }
  ASSERT_EQ(pinned_states.size(), states_at_pin.size());
  for (size_t id = 0; id < states_at_pin.size(); ++id) {
    EXPECT_TRUE(SameState(pinned_states[static_cast<StateId>(id)],
                          states_at_pin[id]))
        << "state " << id;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const FilterResult now = pinned->vfilter.Filter(queries[i]);
    EXPECT_EQ(now.candidates, filtered[i].candidates);
    ASSERT_EQ(now.lists.size(), filtered[i].lists.size());
    for (size_t l = 0; l < now.lists.size(); ++l) {
      ASSERT_EQ(now.lists[l].size(), filtered[i].lists[l].size());
      for (size_t e = 0; e < now.lists[l].size(); ++e) {
        EXPECT_EQ(now.lists[l][e].view_id, filtered[i].lists[l][e].view_id);
        EXPECT_EQ(now.lists[l][e].length, filtered[i].lists[l][e].length);
      }
    }
  }

  // The live snapshot moved on...
  const CatalogRef live = engine.Catalog();
  EXPECT_EQ(live->view(5), nullptr);
  EXPECT_EQ(live->view(100), nullptr);
  EXPECT_NE(live->view(202), nullptr);
  EXPECT_EQ(live->fragments.GetView(100), nullptr);
  // ...sharing the views chunk no mutation wrote (ids 128-191), and every
  // fragment vector it kept.
  for (int32_t id = 128; id < 192; ++id) {
    EXPECT_EQ(live->view(id), pinned->view(id)) << id;
  }
  for (int32_t id = 0; id < 200; ++id) {
    if (id != 5 && id != 100) {
      EXPECT_EQ(live->fragments.GetView(id),
                fragments[static_cast<size_t>(id)]);
    }
  }
  // An NFA chunk whose states all read the same in both snapshots was never
  // written, so it is still shared; at least one is.
  const CowTable<PathNfa::State>& live_states = live->vfilter.nfa().states();
  constexpr size_t kChunk = CowTable<PathNfa::State>::kChunkSize;
  size_t shared_chunks = 0;
  for (size_t begin = 0; begin + kChunk <= pinned_states.size();
       begin += kChunk) {
    bool unchanged = true;
    for (size_t id = begin; id < begin + kChunk; ++id) {
      unchanged = unchanged &&
                  SameState(live_states[static_cast<StateId>(id)],
                            pinned_states[static_cast<StateId>(id)]);
    }
    if (unchanged) {
      ++shared_chunks;
      EXPECT_EQ(&live_states[static_cast<StateId>(begin)],
                &pinned_states[static_cast<StateId>(begin)])
          << "chunk at state " << begin;
    }
  }
  EXPECT_GE(shared_chunks, 1u);
}

// ---------------------------------------------------------------------------
// WAL format: round trip and torn tails.

TEST(CatalogWal, AppendReadAllRoundTrip) {
  const std::string path = TestTempPath("xvr_wal_roundtrip.bin");
  std::remove(path.c_str());
  auto wal = CatalogWal::Open(path, /*last_seq=*/0);
  ASSERT_TRUE(wal.ok());
  auto s1 = (*wal)->Append(CatalogWalOp::kAddView, 0, "/r/s/p");
  auto s2 = (*wal)->Append(CatalogWalOp::kAddView, 1, "/r/s/f");
  auto s3 = (*wal)->Append(CatalogWalOp::kRemoveView, 0, "");
  ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());
  EXPECT_EQ(*s1, 1u);
  EXPECT_EQ(*s3, 3u);
  EXPECT_EQ((*wal)->last_seq(), 3u);

  auto records = CatalogWal::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].seq, 1u);
  EXPECT_EQ((*records)[0].op, CatalogWalOp::kAddView);
  EXPECT_EQ((*records)[0].view_id, 0);
  EXPECT_EQ((*records)[0].xpath, "/r/s/p");
  EXPECT_EQ((*records)[1].op, CatalogWalOp::kAddView);
  EXPECT_EQ((*records)[2].op, CatalogWalOp::kRemoveView);
  EXPECT_TRUE((*records)[2].xpath.empty());
  std::remove(path.c_str());
}

TEST(CatalogWal, TornTailIsDroppedNotFatal) {
  const std::string path = TestTempPath("xvr_wal_torn.bin");
  std::remove(path.c_str());
  auto wal = CatalogWal::Open(path, 0);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 0, "/r/s/p").ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 1, "/r/s/f").ok());

  // Garbage after the last record: a crash mid-append.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x07garbage";
    ASSERT_TRUE(out.good());
  }
  auto records = CatalogWal::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);

  // Truncating into the second record loses exactly that record.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const std::string first =
      EncodeCatalogWalRecord(CatalogWalRecord{1, CatalogWalOp::kAddView, 0,
                                              "/r/s/p"});
  ASSERT_TRUE(
      WriteFileAtomic(path, bytes->substr(0, first.size() + 5)).ok());
  records = CatalogWal::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].xpath, "/r/s/p");
  std::remove(path.c_str());
}

// Op bytes 1 and 2 once named codes-only and pattern-only adds. A record
// carrying one now decodes like any other unknown op: even under a valid
// checksum it ends the intact prefix, and nothing after it is replayed.
TEST(CatalogWal, RetiredOpEndsTheIntactPrefix) {
  const std::string path = TestTempPath("xvr_wal_retired_op.bin");
  const std::string first = EncodeCatalogWalRecord(
      CatalogWalRecord{1, CatalogWalOp::kAddView, 0, "/r/s/p"});
  const std::string last = EncodeCatalogWalRecord(
      CatalogWalRecord{3, CatalogWalOp::kRemoveView, 0, ""});
  for (const uint8_t retired : {uint8_t{1}, uint8_t{2}}) {
    const std::string middle = EncodeCatalogWalRecord(CatalogWalRecord{
        2, static_cast<CatalogWalOp>(retired), 1, "/r/s/f"});
    ASSERT_TRUE(WriteFileAtomic(path, first + middle + last).ok());
    uint64_t intact = 0;
    uint64_t clipped = 0;
    auto records = CatalogWal::ReadAll(path, nullptr, &intact, &clipped);
    ASSERT_TRUE(records.ok()) << records.status();
    ASSERT_EQ(records->size(), 1u) << "op " << int{retired};
    EXPECT_EQ((*records)[0].xpath, "/r/s/p");
    EXPECT_EQ(intact, first.size());
    EXPECT_EQ(clipped, middle.size() + last.size());
  }
  std::remove(path.c_str());
}

TEST(CatalogWal, MissingFileIsAnEmptyLog) {
  auto records =
      CatalogWal::ReadAll(TestTempPath("xvr_wal_nonexistent.bin"));
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

// ---------------------------------------------------------------------------
// Crash recovery: image + WAL tail replay.

class CatalogRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    image_ = TestTempPath("img.bin");
    wal_ = TestTempPath("wal.bin");
    std::remove(image_.c_str());
    std::remove(wal_.c_str());
  }
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    std::remove(image_.c_str());
    std::remove(wal_.c_str());
  }

  // HV answers == BN answers for `xpath` on `engine` (the differential
  // oracle: base strategies never touch the catalog).
  static void ExpectDifferentialMatch(Engine& engine,
                                      const std::string& xpath) {
    const TreePattern q = Parse(engine, xpath);
    auto hv = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
    ASSERT_TRUE(hv.ok()) << xpath << ": " << hv.status();
    auto bn = engine.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
    ASSERT_TRUE(bn.ok());
    EXPECT_EQ(hv->codes, bn->codes) << xpath;
  }

  std::string image_;
  std::string wal_;
};

// A logged add carries the id it was published under, which is always the
// catalog's next id at that point. A record with any other id (a repeat,
// a gap, or one far past every issued id) fails replay with PARSE_ERROR
// instead of re-adding a view or sizing the id tables to it.
TEST_F(CatalogRecoveryTest, ReplayRejectsAddsOutOfIdOrder) {
  for (const int32_t bad_id : {0, 2, 2000000000}) {
    std::remove(wal_.c_str());
    {
      auto wal = CatalogWal::Open(wal_, /*last_seq=*/0);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 0, "/r/s/p").ok());
      ASSERT_TRUE(
          (*wal)->Append(CatalogWalOp::kAddView, bad_id, "/r/t/u").ok());
    }
    Engine engine(TinyDoc());
    const Status replayed = engine.EnableCatalogWal(wal_);
    EXPECT_EQ(replayed.code(), StatusCode::kParseError) << bad_id;
    EXPECT_EQ(engine.view_ids(), std::vector<int32_t>{0}) << bad_id;
  }
}

TEST_F(CatalogRecoveryTest, WalReplayRecoversUnsavedMutations) {
  int32_t kept = -1, churned = -1, late = -1;
  {
    Engine engine(TinyDoc());
    ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
    EXPECT_TRUE(engine.catalog_wal_enabled());
    auto id0 = engine.AddView(Parse(engine, "/r/s/p"));
    ASSERT_TRUE(id0.ok());
    kept = *id0;
    // SaveState checkpoints and truncates: these mutations live in the
    // image, not the log.
    ASSERT_TRUE(engine.SaveState(image_).ok());
    auto tail = ReadFileToString(wal_);
    ASSERT_TRUE(tail.ok());
    EXPECT_TRUE(tail->empty());

    // Mutations after the save exist only in the WAL.
    auto id1 = engine.AddView(Parse(engine, "/r/s/q"));
    ASSERT_TRUE(id1.ok());
    churned = *id1;
    auto id2 = engine.AddView(Parse(engine, "/r/t/u"));
    ASSERT_TRUE(id2.ok());
    late = *id2;
    ASSERT_TRUE(engine.RemoveView(churned).ok());
    // Crash: the engine dies here without another SaveState.
  }

  auto recovered = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Engine& engine = **recovered;
  EXPECT_EQ(engine.view_ids(), (std::vector<int32_t>{kept, late}));
  EXPECT_EQ(engine.view(churned), nullptr);
  // Replay continues the sequence: the next mutation appends after the
  // replayed tail instead of reusing sequence numbers.
  EXPECT_EQ(engine.catalog_wal_last_seq(), 4u);
  auto next = engine.AddView(Parse(engine, "/r/s"));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, late);
  EXPECT_EQ(engine.catalog_wal_last_seq(), 5u);
  ExpectDifferentialMatch(engine, "/r/s/p");
  ExpectDifferentialMatch(engine, "/r/t/u");
}

TEST_F(CatalogRecoveryTest, TruncationSweepRecoversAPrefix) {
  // Mutation sequence whose every prefix we can predict.
  std::vector<std::vector<int32_t>> expected_after;  // index = #replayed
  {
    Engine engine(TinyDoc());
    ASSERT_TRUE(engine.SaveState(image_).ok());
    ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
    expected_after.push_back(engine.view_ids());  // nothing replayed
    auto apply = [&](auto&& mutate) {
      ASSERT_TRUE(mutate());
      expected_after.push_back(engine.view_ids());
    };
    apply([&] { return engine.AddView(Parse(engine, "/r/s/p")).ok(); });
    apply([&] { return engine.AddView(Parse(engine, "/r/s/q")).ok(); });
    apply([&] { return engine.AddView(Parse(engine, "/r/t/u")).ok(); });
    apply([&] { return engine.RemoveView(1).ok(); });
    apply([&] { return engine.AddView(Parse(engine, "/r/s")).ok(); });
    apply([&] { return engine.RemoveView(0).ok(); });
  }

  auto full = ReadFileToString(wal_);
  ASSERT_TRUE(full.ok());
  // Per-record end offsets, from the encoding itself.
  auto records = CatalogWal::ReadAll(wal_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), expected_after.size() - 1);
  std::vector<size_t> record_end;
  size_t offset = 0;
  for (const CatalogWalRecord& record : *records) {
    offset += EncodeCatalogWalRecord(record).size();
    record_end.push_back(offset);
  }
  ASSERT_EQ(offset, full->size());

  const std::string swept_wal = wal_ + ".sweep";
  for (size_t len = 0; len <= full->size(); ++len) {
    // "Crash" with only the first `len` bytes of the log durable.
    ASSERT_TRUE(WriteFileAtomic(swept_wal, full->substr(0, len)).ok());
    auto recovered = Engine::LoadStateWithWal(image_, swept_wal);
    ASSERT_TRUE(recovered.ok()) << "len=" << len << ": "
                                << recovered.status();
    // Exactly the complete records within `len` bytes replay: recovery is
    // always a prefix of the real mutation sequence, nothing else.
    size_t replayed = 0;
    while (replayed < record_end.size() && record_end[replayed] <= len) {
      ++replayed;
    }
    EXPECT_EQ((*recovered)->view_ids(), expected_after[replayed])
        << "len=" << len;
    EXPECT_TRUE((*recovered)->quarantined_view_ids().empty());
  }
  // The full log recovers the final state, and the recovered engine
  // answers correctly.
  ASSERT_TRUE(WriteFileAtomic(swept_wal, *full).ok());
  auto recovered = Engine::LoadStateWithWal(image_, swept_wal);
  ASSERT_TRUE(recovered.ok());
  ExpectDifferentialMatch(**recovered, "/r/t/u");
  std::remove(swept_wal.c_str());
}

TEST_F(CatalogRecoveryTest, SavedImageRoundTripsWithWalReplayOnTop) {
  // image(v0) + WAL(v1) -> recover -> save -> recover again: no mutation
  // applies twice, ids and answers are stable.
  {
    Engine engine(TinyDoc());
    ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
    ASSERT_TRUE(engine.SaveState(image_).ok());
    ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
    ASSERT_TRUE(engine.AddView(Parse(engine, "/r/t/u")).ok());
  }
  auto first = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ((*first)->view_ids(), (std::vector<int32_t>{0, 1}));
  ASSERT_TRUE((*first)->SaveState(image_).ok());
  auto second = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ((*second)->view_ids(), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ((*second)->num_views(), 2u);
  ExpectDifferentialMatch(**second, "/r/s/p");
}

// LoadState builds VFILTER from the stored views. After churn (every 7th
// view removed, which leaves freed slots and dead NFA states behind in the
// saved engine) the rebuilt filter yields the same candidates and every
// LIST(P_i) for a generated query set.
TEST_F(CatalogRecoveryTest, SaveLoadAfterChurnKeepsEveryFilterResult) {
  XmarkOptions xmark;
  xmark.scale = 0.05;
  Engine engine(GenerateXmark(xmark));
  QueryGenOptions gen;
  gen.max_depth = 4;
  gen.prob_wild = 0.2;
  gen.prob_desc = 0.2;
  gen.num_pred = 1;
  gen.num_nestedpath = 1;
  for (TreePattern& view : GenerateViewSet(engine.doc(), 150, gen, 7)) {
    // A view with an empty result or over the per-view fragment cap is
    // refused; the rest suffice.
    const Result<int32_t> id = engine.AddView(std::move(view));
    EXPECT_TRUE(id.ok() || id.status().code() == StatusCode::kNotFound ||
                id.status().code() == StatusCode::kCapacityExceeded)
        << id.status();
  }
  const std::vector<int32_t> ids = engine.view_ids();
  ASSERT_GE(ids.size(), 100u);
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(engine.RemoveView(ids[i]).ok());
  }
  ASSERT_TRUE(engine.SaveState(image_).ok());
  auto loaded = Engine::LoadState(image_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->view_ids(), engine.view_ids());

  gen.num_pred = 2;
  size_t candidates = 0;
  for (const TreePattern& query : GenerateViewSet(engine.doc(), 120, gen, 8)) {
    // Both engines parse the same text, so their query paths (and hence
    // the LIST(P_i)) come in the same order.
    const std::string xpath = PatternToXPath(query, engine.doc().labels());
    const FilterResult want = engine.vfilter().Filter(Parse(engine, xpath));
    const FilterResult got =
        (*loaded)->vfilter().Filter(Parse(**loaded, xpath));
    EXPECT_EQ(got.candidates, want.candidates) << xpath;
    candidates += want.candidates.size();
    ASSERT_EQ(got.lists.size(), want.lists.size()) << xpath;
    for (size_t i = 0; i < want.lists.size(); ++i) {
      ASSERT_EQ(got.lists[i].size(), want.lists[i].size()) << xpath;
      for (size_t k = 0; k < want.lists[i].size(); ++k) {
        EXPECT_EQ(got.lists[i][k].view_id, want.lists[i][k].view_id) << xpath;
        EXPECT_EQ(got.lists[i][k].length, want.lists[i][k].length) << xpath;
      }
    }
  }
  EXPECT_GT(candidates, 0u);  // the comparison is not vacuous
}

// ---------------------------------------------------------------------------
// WAL fault points (need -DXVR_FAULTS=ON; skip elsewhere).

class CatalogWalFaultTest : public CatalogRecoveryTest {
 protected:
  void SetUp() override {
    CatalogRecoveryTest::SetUp();
    if (!FaultInjectionCompiledIn()) {
      GTEST_SKIP() << "built without XVR_FAULTS";
    }
  }
  static void Arm(const char* point, uint64_t max_fires = 0) {
    FaultSpec spec;
    spec.every_nth = 1;
    spec.max_fires = max_fires;
    FaultInjector::Instance().Arm(point, spec);
  }
};

TEST_F(CatalogWalFaultTest, AppendFaultAbortsTheMutation) {
  Engine engine(TinyDoc());
  ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  const uint64_t version = engine.catalog_version();

  // Unlimited fires: every retry attempt fails, so the mutation must abort
  // without publishing anything.
  Arm("catalog_wal.append");
  auto failed = engine.AddView(Parse(engine, "/r/t/u"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(engine.catalog_version(), version);
  EXPECT_EQ(engine.num_views(), 1u);
  Status removed = engine.RemoveView(0);
  EXPECT_EQ(removed.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.num_views(), 1u);
  FaultInjector::Instance().DisarmAll();

  // Transient blip (fail twice, succeed on the third attempt): the append
  // retry absorbs it and the mutation lands.
  Arm("catalog_wal.append", /*max_fires=*/2);
  auto ok = engine.AddView(Parse(engine, "/r/t/u"));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(engine.num_views(), 2u);
  FaultInjector::Instance().DisarmAll();

  // The log only holds published mutations: recovery sees no trace of the
  // aborted one.
  ASSERT_TRUE(engine.SaveState(image_).ok());
  auto recovered = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->view_ids(), engine.view_ids());
}

TEST_F(CatalogWalFaultTest, ReplayFaultSurfacesAndRetrySucceeds) {
  {
    Engine engine(TinyDoc());
    ASSERT_TRUE(engine.SaveState(image_).ok());
    ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
    ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  }
  Arm("catalog_wal.replay");
  auto failed = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  FaultInjector::Instance().DisarmAll();
  // Nothing was consumed: the same recovery now succeeds in full.
  auto recovered = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->view_ids(), std::vector<int32_t>{0});
  ExpectDifferentialMatch(**recovered, "/r/s/p");
}

TEST_F(CatalogWalFaultTest, TruncateFaultLeavesRecoverableState) {
  Engine engine(TinyDoc());
  ASSERT_TRUE(engine.EnableCatalogWal(wal_).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/t/u")).ok());

  Arm("catalog_wal.truncate");
  Status save = engine.SaveState(image_);
  ASSERT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kIoError);
  FaultInjector::Instance().DisarmAll();

  // The image is durable and checkpointed; the stale records left in the
  // log are skipped on replay instead of applying twice.
  auto stale = ReadFileToString(wal_);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->empty());
  auto recovered = Engine::LoadStateWithWal(image_, wal_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->view_ids(), engine.view_ids());
  EXPECT_EQ((*recovered)->num_views(), 2u);
  // Fresh mutations on the recovered engine take new ids and sequences.
  auto next = engine.catalog_wal_last_seq();
  EXPECT_EQ((*recovered)->catalog_wal_last_seq(), next);
  ExpectDifferentialMatch(**recovered, "/r/s/p");
}

}  // namespace
}  // namespace xvr
