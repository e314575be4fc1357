#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/status.h"
#include "core/engine.h"
#include "storage/kv_store.h"
#include "test_util.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Registry semantics (always compiled; needs no XVR_FAULTS build).

class FaultRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
  FaultInjector& injector() { return FaultInjector::Instance(); }
};

TEST_F(FaultRegistryTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(injector().ShouldFire("test.unarmed"));
  EXPECT_EQ(injector().HitCount("test.unarmed"), 0u);
}

TEST_F(FaultRegistryTest, EveryNthFiresOnTheNthCall) {
  FaultSpec spec;
  spec.every_nth = 3;
  injector().Arm("test.nth", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(injector().ShouldFire("test.nth"));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(injector().HitCount("test.nth"), 9u);
  EXPECT_EQ(injector().FireCount("test.nth"), 3u);
}

TEST_F(FaultRegistryTest, SkipDelaysEligibility) {
  FaultSpec spec;
  spec.every_nth = 1;
  spec.skip = 2;
  injector().Arm("test.skip", spec);
  EXPECT_FALSE(injector().ShouldFire("test.skip"));
  EXPECT_FALSE(injector().ShouldFire("test.skip"));
  EXPECT_TRUE(injector().ShouldFire("test.skip"));
  EXPECT_TRUE(injector().ShouldFire("test.skip"));
}

TEST_F(FaultRegistryTest, MaxFiresCapsTheDamage) {
  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 2;
  injector().Arm("test.cap", spec);
  EXPECT_TRUE(injector().ShouldFire("test.cap"));
  EXPECT_TRUE(injector().ShouldFire("test.cap"));
  EXPECT_FALSE(injector().ShouldFire("test.cap"));
  EXPECT_FALSE(injector().ShouldFire("test.cap"));
  EXPECT_EQ(injector().FireCount("test.cap"), 2u);
}

TEST_F(FaultRegistryTest, ProbabilityExtremes) {
  FaultSpec always;
  always.every_nth = 0;
  always.probability = 1.0;
  injector().Arm("test.p1", always);
  FaultSpec never;
  never.every_nth = 0;
  never.probability = 0.0;
  injector().Arm("test.p0", never);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(injector().ShouldFire("test.p1"));
    EXPECT_FALSE(injector().ShouldFire("test.p0"));
  }
}

TEST_F(FaultRegistryTest, ProbabilisticSequenceIsSeedDeterministic) {
  FaultSpec spec;
  spec.every_nth = 0;
  spec.probability = 0.5;
  spec.seed = 7;
  injector().Arm("test.seeded", spec);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(injector().ShouldFire("test.seeded"));
  }
  injector().Arm("test.seeded", spec);  // re-arm resets the RNG
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) {
    second.push_back(injector().ShouldFire("test.seeded"));
  }
  EXPECT_EQ(first, second);
}

TEST_F(FaultRegistryTest, DisarmStopsFiring) {
  FaultSpec spec;
  injector().Arm("test.disarm", spec);
  EXPECT_TRUE(injector().ShouldFire("test.disarm"));
  injector().Disarm("test.disarm");
  EXPECT_FALSE(injector().ShouldFire("test.disarm"));
  EXPECT_EQ(injector().HitCount("test.disarm"), 0u);  // counters reset
}

// ---------------------------------------------------------------------------
// Behavior at the compiled-in fault points. These need a build with
// -DXVR_FAULTS=ON (the CI fault-injection job); elsewhere they skip.

class FaultPointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjectionCompiledIn()) {
      GTEST_SKIP() << "built without XVR_FAULTS";
    }
  }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  static void Arm(const char* point, uint64_t every_nth = 1,
                  uint64_t max_fires = 0) {
    FaultSpec spec;
    spec.every_nth = every_nth;
    spec.max_fires = max_fires;
    FaultInjector::Instance().Arm(point, spec);
  }

  static XmlTree MakeDoc() {
    auto r = ParseXml("<r><s><p/><q/></s><s><p/></s><t><u/></t></r>");
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }
  static TreePattern Parse(Engine& engine, const std::string& xpath) {
    auto r = engine.Parse(xpath);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
};

TEST_F(FaultPointTest, KvSaveFaultLeavesOldFileIntact) {
  const std::string path = TestTempPath("xvr_fi_kv.bin");
  KvStore kv;
  kv.Put("k", "v1");
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  kv.Put("k", "v2");
  Arm("kv_store.save");
  auto failed = kv.SaveToFile(path);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  FaultInjector::Instance().DisarmAll();
  KvStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  ASSERT_NE(loaded.Get("k"), nullptr);
  EXPECT_EQ(*loaded.Get("k"), "v1");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, AtomicWriteFaultPreservesTarget) {
  const std::string path = TestTempPath("xvr_fi_atomic.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  Arm("file.write_atomic");
  EXPECT_FALSE(WriteFileAtomic(path, "new").ok());
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, AtomicWriteRetryAbsorbsTransientFaults) {
  const std::string path = TestTempPath("xvr_fi_retry.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  // Fail the first two attempts, succeed on the third: the default policy
  // (3 attempts) absorbs the blip.
  Arm("file.write_atomic", /*every_nth=*/1, /*max_fires=*/2);
  EXPECT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(FaultInjector::Instance().FireCount("file.write_atomic"), 2u);
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, AtomicWriteWithoutRetryFailsOnFirstFault) {
  const std::string path = TestTempPath("xvr_fi_noretry.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  // The same single transient fault is fatal when retry is disabled.
  Arm("file.write_atomic", /*every_nth=*/1, /*max_fires=*/1);
  EXPECT_FALSE(WriteFileAtomic(path, "new", RetryPolicy::None()).ok());
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, KvLoadFaultSurfacesAsIoError) {
  KvStore kv;
  kv.Put("k", "v");
  const std::string image = kv.Serialize();
  Arm("kv_store.load");
  KvStore loaded;
  auto failed = loaded.Deserialize(image);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  FaultInjector::Instance().DisarmAll();
  EXPECT_TRUE(loaded.Deserialize(image).ok());
}

// ---------------------------------------------------------------------------
// The Env-level fault points (env.append / env.sync / env.rename /
// env.sync_dir, storage/env.cc): syscall-granularity failures under the
// real PosixEnv, below the file_util/WAL retry layers.

TEST_F(FaultPointTest, EnvAppendFaultPreservesTarget) {
  const std::string path = TestTempPath("xvr_fi_env_append.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  Arm("env.append");
  EXPECT_FALSE(WriteFileAtomic(path, "new", RetryPolicy::None()).ok());
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, EnvSyncRetryAbsorbsTransientFault) {
  const std::string path = TestTempPath("xvr_fi_env_sync.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  // One failed fdatasync; the default retry policy's second attempt lands.
  Arm("env.sync", /*every_nth=*/1, /*max_fires=*/1);
  EXPECT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(FaultInjector::Instance().FireCount("env.sync"), 1u);
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, EnvRenameFaultPreservesTargetAndCleansTemp) {
  const std::string path = TestTempPath("xvr_fi_env_rename.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  Arm("env.rename");
  EXPECT_FALSE(WriteFileAtomic(path, "new", RetryPolicy::None()).ok());
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "old");
  // The failed attempt removed its own temp; the next save sweeps nothing.
  int swept = -1;
  ASSERT_TRUE(
      WriteFileAtomic(path, "new", RetryPolicy::None(), nullptr, &swept).ok());
  EXPECT_EQ(swept, 0);
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, EnvSyncDirFaultSurfacesAfterRename) {
  const std::string path = TestTempPath("xvr_fi_env_syncdir.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  // The directory fsync is the last step: when it fails, the rename has
  // already happened, so the live file shows the new bytes — but the save
  // reports failure because the rename's durability is unproven, and the
  // caller must treat the image as not-yet-saved.
  Arm("env.sync_dir");
  EXPECT_FALSE(WriteFileAtomic(path, "new", RetryPolicy::None()).ok());
  FaultInjector::Instance().DisarmAll();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, EngineSaveOnEnvFaultKeepsServingAndCountsIoErrors) {
  const std::string image = TestTempPath("xvr_fi_env_engine.img");
  const std::string wal = TestTempPath("xvr_fi_env_engine.wal");
  std::remove(image.c_str());
  std::remove(wal.c_str());
  Engine engine(MakeDoc());
  ASSERT_TRUE(engine.EnableCatalogWal(wal).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  ASSERT_TRUE(engine.SaveState(image).ok());

  Arm("env.append");
  EXPECT_FALSE(engine.SaveState(image).ok());
  FaultInjector::Instance().DisarmAll();
  // The metering saw the syscall failure and the engine keeps answering.
  EXPECT_GE(engine.ServerStats().storage_io_errors, 1u);
  auto answer = engine.AnswerQuery(Parse(engine, "/r/s/p"),
                                   AnswerStrategy::kBaseNodeIndex);
  EXPECT_TRUE(answer.ok());
  // And the prior image still loads.
  auto reloaded = Engine::LoadStateWithWal(image, wal);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ((*reloaded)->num_views(), 1u);
  std::remove(image.c_str());
  std::remove(wal.c_str());
}

TEST_F(FaultPointTest, FragmentLoadFaultQuarantinesTheView) {
  const std::string path = TestTempPath("xvr_fi_frag.bin");
  {
    Engine engine(MakeDoc());
    ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());  // view 0
    ASSERT_TRUE(engine.AddView(Parse(engine, "/r/t/u")).ok());  // view 1
    ASSERT_TRUE(engine.SaveState(path).ok());
  }
  // Poison the first fragment decoded (key order: view 0's first fragment).
  Arm("fragment_store.load", /*every_nth=*/1, /*max_fires=*/1);
  auto loaded = Engine::LoadState(path);
  FaultInjector::Instance().DisarmAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Engine& engine = **loaded;
  EXPECT_EQ(engine.quarantined_view_ids(), std::vector<int32_t>{0});
  // The unaffected view still serves, and matches the base answer.
  const TreePattern q = Parse(engine, "/r/t/u");
  auto hv = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hv.ok()) << hv.status();
  auto bn = engine.AnswerQuery(q, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(hv->codes, bn->codes);
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, MaterializerCapacityFaultFailsAddCleanly) {
  Engine engine(MakeDoc());
  Arm("materializer.capacity");
  auto failed = engine.AddView(Parse(engine, "/r/s/p"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(engine.num_views(), 0u);
  FaultInjector::Instance().DisarmAll();
  // The failure left no partial state behind: the same add now succeeds.
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  const TreePattern q = Parse(engine, "/r/s/p");
  auto hv = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(hv.ok()) << hv.status();
  EXPECT_EQ(hv->codes.size(), 2u);
}

TEST_F(FaultPointTest, ExecuteFaultIsIsolatedPerBatchSlot) {
  Engine engine(MakeDoc());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/t/u")).ok());
  std::vector<TreePattern> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(Parse(engine, i % 2 == 0 ? "/r/s/p" : "/r/t/u"));
  }
  // Fire on every second Execute: sequential order makes slots 1 and 3 fail.
  Arm("pipeline.execute", /*every_nth=*/2);
  auto results = engine.BatchAnswer(queries,
                                    AnswerStrategy::kHeuristicFiltered,
                                    /*num_threads=*/1);
  FaultInjector::Instance().DisarmAll();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_FALSE(results[3].ok());
  EXPECT_EQ(results[0]->codes.size(), 2u);
  EXPECT_EQ(results[2]->codes.size(), 2u);
}

TEST_F(FaultPointTest, PlanFaultSurfacesWithoutPoisoningTheCache) {
  Engine engine(MakeDoc());
  ASSERT_TRUE(engine.AddView(Parse(engine, "/r/s/p")).ok());
  const TreePattern q = Parse(engine, "/r/s/p");
  Arm("pipeline.plan");
  auto failed = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  FaultInjector::Instance().DisarmAll();
  auto ok = engine.AnswerQuery(q, AnswerStrategy::kHeuristicFiltered);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->codes.size(), 2u);
}

}  // namespace
}  // namespace xvr
