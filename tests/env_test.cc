// The storage Env layer: CrashSimEnv's power-cut model (volatile vs
// durable bytes, namespace ops gated on SyncDir, torn-tail policies,
// ENOSPC/EIO injection), PosixEnv round trips on a real filesystem, and
// WriteFileAtomic's durability contract proved by cutting simulated power
// at every operation index of a save — plus the unique-temp-name and
// stale-temp-sweep regressions.

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "storage/catalog_wal.h"
#include "storage/crash_sim_env.h"
#include "storage/env.h"
#include "storage/metered_env.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace xvr {
namespace {

Status WriteAll(Env* env, const std::string& path, const std::string& bytes,
                bool sync, bool sync_dir) {
  auto file = env->NewWritableFile(path, WriteMode::kTruncate);
  XVR_RETURN_IF_ERROR(file.status());
  XVR_RETURN_IF_ERROR((*file)->Append(bytes));
  if (sync) {
    XVR_RETURN_IF_ERROR((*file)->Sync());
  }
  XVR_RETURN_IF_ERROR((*file)->Close());
  if (sync_dir) {
    XVR_RETURN_IF_ERROR(env->SyncDir(DirOf(path)));
  }
  return Status::Ok();
}

std::string MustRead(Env* env, const std::string& path) {
  auto bytes = env->ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path << ": " << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

// --- path helpers ----------------------------------------------------------

TEST(EnvPathTest, DirOfAndBaseNameOf) {
  EXPECT_EQ(DirOf("a/b/c"), "a/b");
  EXPECT_EQ(DirOf("c"), ".");
  EXPECT_EQ(DirOf("/c"), "/");
  EXPECT_EQ(BaseNameOf("a/b/c"), "c");
  EXPECT_EQ(BaseNameOf("c"), "c");
}

TEST(EnvPathTest, EnospcTaggingAndDetection) {
  const Status enospc = IoErrorFromErrno("op", "p", ENOSPC);
  const Status eio = IoErrorFromErrno("op", "p", EIO);
  EXPECT_TRUE(IsNoSpace(enospc));
  EXPECT_FALSE(IsNoSpace(eio));
  EXPECT_FALSE(IsNoSpace(Status::Ok()));
}

// --- CrashSimEnv semantics -------------------------------------------------

TEST(CrashSimEnvTest, UnsyncedAppendsVanishAtPowerCut) {
  CrashSimEnv env;
  // Dentry made durable, data only flushed (not synced).
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "hello", /*sync=*/false, /*sync_dir=*/true).ok());
  env.CutPower();
  env.Reboot();
  EXPECT_TRUE(env.FileExists("/d/f"));  // creation survived (SyncDir ran)
  EXPECT_EQ(MustRead(&env, "/d/f"), "");  // bytes did not (no Sync)
}

TEST(CrashSimEnvTest, SyncedBytesSurvivePowerCut) {
  CrashSimEnv env;
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "hello", /*sync=*/true, /*sync_dir=*/true).ok());
  env.CutPower();
  env.Reboot();
  EXPECT_EQ(MustRead(&env, "/d/f"), "hello");
}

TEST(CrashSimEnvTest, CreationWithoutSyncDirVanishesAtPowerCut) {
  CrashSimEnv env;
  // Data synced but the directory entry never was: strict POSIX says the
  // file may simply not exist after the cut.
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "hello", /*sync=*/true, /*sync_dir=*/false).ok());
  env.CutPower();
  env.Reboot();
  EXPECT_FALSE(env.FileExists("/d/f"));
}

TEST(CrashSimEnvTest, RenameNotDurableUntilSyncDir) {
  CrashSimEnv env;
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "old", /*sync=*/true, /*sync_dir=*/true).ok());
  ASSERT_TRUE(
      WriteAll(&env, "/d/t", "new", /*sync=*/true, /*sync_dir=*/true).ok());
  ASSERT_TRUE(env.RenameFile("/d/t", "/d/f").ok());
  EXPECT_EQ(MustRead(&env, "/d/f"), "new");  // live view sees the rename
  env.CutPower();
  env.Reboot();
  // No SyncDir after the rename: the cut rolled it back.
  EXPECT_EQ(MustRead(&env, "/d/f"), "old");
  EXPECT_EQ(MustRead(&env, "/d/t"), "new");

  // Same again, but synced: the rename sticks.
  ASSERT_TRUE(
      WriteAll(&env, "/d/t2", "newer", /*sync=*/true, /*sync_dir=*/true).ok());
  ASSERT_TRUE(env.RenameFile("/d/t2", "/d/f").ok());
  ASSERT_TRUE(env.SyncDir("/d").ok());
  env.CutPower();
  env.Reboot();
  EXPECT_EQ(MustRead(&env, "/d/f"), "newer");
  EXPECT_FALSE(env.FileExists("/d/t2"));
}

TEST(CrashSimEnvTest, RenameBeforeDataHazard) {
  // The ext4-style failure WriteFileAtomic's sync-before-rename exists to
  // prevent: on an eager-metadata filesystem the rename becomes durable
  // while the renamed file's (never-synced) data does not — the "good" new
  // image is a zero-length husk, and the old image is gone.
  CrashSimEnv env;
  env.set_persist_unsynced_namespace(true);
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "old", /*sync=*/true, /*sync_dir=*/true).ok());
  ASSERT_TRUE(
      WriteAll(&env, "/d/t", "new", /*sync=*/false, /*sync_dir=*/false).ok());
  ASSERT_TRUE(env.RenameFile("/d/t", "/d/f").ok());
  env.CutPower();
  env.Reboot();
  EXPECT_TRUE(env.FileExists("/d/f"));
  EXPECT_EQ(MustRead(&env, "/d/f"), "");  // the husk
}

TEST(CrashSimEnvTest, TornTailPolicies) {
  struct Case {
    TornTail policy;
    std::string expect;
  };
  const std::string durable = "AB";
  const std::string volatile_suffix = "CDEF";
  std::string corrupted = "CDEF";
  corrupted.back() = static_cast<char>(corrupted.back() ^ 0xFF);
  const Case cases[] = {
      {TornTail::kDropAll, "AB"},
      {TornTail::kKeepAll, "ABCDEF"},
      {TornTail::kKeepHalf, "ABCD"},
      {TornTail::kCorruptLastByte, "AB" + corrupted},
  };
  for (const Case& c : cases) {
    CrashSimEnv env;
    env.SetTornTail(c.policy);
    auto file = env.NewWritableFile("/d/f", WriteMode::kTruncate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(durable).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE(env.SyncDir("/d").ok());
    ASSERT_TRUE((*file)->Append(volatile_suffix).ok());
    env.CutPower();
    env.Reboot();
    EXPECT_EQ(MustRead(&env, "/d/f"), c.expect)
        << "policy " << static_cast<int>(c.policy);
  }
}

TEST(CrashSimEnvTest, OpenHandlesGoStaleAcrossPowerCut) {
  CrashSimEnv env;
  auto file = env.NewWritableFile("/d/f", WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  env.CutPower();
  env.Reboot();
  const Status stale = (*file)->Append("y");
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.message().find("stale handle"), std::string::npos);
}

TEST(CrashSimEnvTest, ScheduledEnospcFailsMutationsButNotReads) {
  CrashSimEnv env;
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "data", /*sync=*/true, /*sync_dir=*/true).ok());
  env.ScheduleFailure(0, FailMode::kEnospc, /*sticky=*/true);
  const Status st = WriteAll(&env, "/d/g", "x", true, true);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(IsNoSpace(st));
  // The full disk still serves reads.
  EXPECT_EQ(MustRead(&env, "/d/f"), "data");
  // And recovers once space frees up.
  env.ClearFailure();
  EXPECT_TRUE(WriteAll(&env, "/d/g", "x", true, true).ok());
}

TEST(CrashSimEnvTest, ScheduledEioTearsTheAppend) {
  CrashSimEnv env;
  auto file = env.NewWritableFile("/d/f", WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  env.ScheduleFailure(0, FailMode::kEio);
  const Status st = (*file)->Append("ABCDEF");
  ASSERT_FALSE(st.ok());
  // Half the bytes landed before the error: exactly what a torn append
  // looks like, and what writers must repair before retrying.
  EXPECT_EQ(MustRead(&env, "/d/f"), "ABC");
  EXPECT_TRUE((*file)->Append("Z").ok());  // non-sticky: next op succeeds
  EXPECT_EQ(MustRead(&env, "/d/f"), "ABCZ");
}

TEST(CrashSimEnvTest, PowerCutAtScheduledOpFailsEverythingUntilReboot) {
  CrashSimEnv env;
  ASSERT_TRUE(
      WriteAll(&env, "/d/f", "data", /*sync=*/true, /*sync_dir=*/true).ok());
  env.ScheduleFailure(1, FailMode::kPowerCut);
  EXPECT_TRUE(env.ReadFile("/d/f").ok());   // op 0: still powered
  EXPECT_FALSE(env.ReadFile("/d/f").ok());  // op 1: the cut
  EXPECT_FALSE(env.ReadFile("/d/f").ok());  // still off
  env.Reboot();
  EXPECT_EQ(MustRead(&env, "/d/f"), "data");
}

TEST(CrashSimEnvTest, ListDirAndNotFound) {
  CrashSimEnv env;
  ASSERT_TRUE(WriteAll(&env, "/d/b", "1", true, true).ok());
  ASSERT_TRUE(WriteAll(&env, "/d/a", "2", true, true).ok());
  ASSERT_TRUE(WriteAll(&env, "/e/c", "3", true, true).ok());
  auto names = env.ListDir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(env.ReadFile("/d/missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env.RemoveFile("/d/missing").code(), StatusCode::kNotFound);
  ASSERT_TRUE(env.RemoveFile("/d/a").ok());
  EXPECT_FALSE(env.FileExists("/d/a"));
}

// --- PosixEnv on a real filesystem ----------------------------------------

TEST(PosixEnvTest, RoundTrip) {
  Env* env = DefaultEnv();
  const std::string path = TestTempPath("posix_env_roundtrip");
  auto file = env->NewWritableFile(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  ASSERT_TRUE((*file)->Close().ok());  // idempotent
  ASSERT_TRUE(env->SyncDir(DirOf(path)).ok());
  EXPECT_EQ(MustRead(env, path), "hello world");

  // Append mode extends; truncate mode restarts.
  auto more = env->NewWritableFile(path, WriteMode::kAppend);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE((*more)->Append("!").ok());
  ASSERT_TRUE((*more)->Close().ok());
  EXPECT_EQ(MustRead(env, path), "hello world!");

  ASSERT_TRUE(env->RenameFile(path, path + ".renamed").ok());
  EXPECT_FALSE(env->FileExists(path));
  EXPECT_EQ(MustRead(env, path + ".renamed"), "hello world!");
  EXPECT_EQ(env->ReadFile(path).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(env->RemoveFile(path + ".renamed").ok());
  EXPECT_EQ(env->RemoveFile(path + ".renamed").code(), StatusCode::kNotFound);
}

TEST(PosixEnvTest, TruncateToCutsTheTail) {
  Env* env = DefaultEnv();
  const std::string path = TestTempPath("posix_env_truncate");
  auto file = env->NewWritableFile(path, WriteMode::kTruncate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("ABCDEF").ok());
  ASSERT_TRUE((*file)->TruncateTo(3).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(MustRead(env, path), "ABC");
  ASSERT_TRUE(env->RemoveFile(path).ok());
}

// --- WriteFileAtomic: the durability contract ------------------------------

// Cut power at every operation index of a save and check the oracle: the
// target afterwards is the old image or the new one, bit-exact, never torn,
// never empty — and if the save was acked, it is the new one.
TEST(WriteFileAtomicCrashTest, EveryCrashPointLeavesOldOrNewImage) {
  const std::string path = "/d/state";
  // Dry run to size the op space.
  uint64_t total_ops = 0;
  {
    CrashSimEnv env;
    ASSERT_TRUE(
        WriteFileAtomic(path, "old", RetryPolicy::None(), &env).ok());
    const uint64_t before = env.op_count();
    ASSERT_TRUE(
        WriteFileAtomic(path, "new", RetryPolicy::None(), &env).ok());
    total_ops = env.op_count() - before;
    ASSERT_GT(total_ops, 4u);  // open+append+sync+close+rename+syncdir+sweep
  }
  const TornTail policies[] = {TornTail::kDropAll, TornTail::kKeepAll,
                               TornTail::kKeepHalf,
                               TornTail::kCorruptLastByte};
  for (const TornTail policy : policies) {
    for (bool eager_namespace : {false, true}) {
      for (uint64_t k = 0; k < total_ops; ++k) {
        CrashSimEnv env;
        env.SetTornTail(policy);
        env.set_persist_unsynced_namespace(eager_namespace);
        ASSERT_TRUE(
            WriteFileAtomic(path, "old", RetryPolicy::None(), &env).ok());
        env.ScheduleFailure(k, FailMode::kPowerCut);
        const Status saved =
            WriteFileAtomic(path, "new", RetryPolicy::None(), &env);
        env.Reboot();
        auto bytes = env.ReadFile(path);
        ASSERT_TRUE(bytes.ok())
            << "crash@" << k << ": target unreadable: " << bytes.status();
        if (saved.ok()) {
          EXPECT_EQ(*bytes, "new") << "acked save lost, crash@" << k;
        } else {
          EXPECT_TRUE(*bytes == "old" || *bytes == "new")
              << "torn image \"" << *bytes << "\", crash@" << k;
        }
      }
    }
  }
}

TEST(WriteFileAtomicTest, FailedSaveLeavesNoTempAndOldImage) {
  CrashSimEnv env;
  const std::string path = "/d/state";
  ASSERT_TRUE(WriteFileAtomic(path, "old", RetryPolicy::None(), &env).ok());
  // Sticky EIO: the save fails at its first mutating op.
  env.ScheduleFailure(0, FailMode::kEio, /*sticky=*/true);
  ASSERT_FALSE(WriteFileAtomic(path, "new", RetryPolicy::None(), &env).ok());
  env.ClearFailure();
  EXPECT_EQ(MustRead(&env, path), "old");
  // The next save succeeds and sweeps anything a failed attempt stranded.
  ASSERT_TRUE(WriteFileAtomic(path, "new2", RetryPolicy::None(), &env).ok());
  EXPECT_EQ(MustRead(&env, path), "new2");
  for (const std::string& live : env.LiveFiles()) {
    EXPECT_EQ(live.find(".tmp."), std::string::npos) << live;
  }
}

TEST(WriteFileAtomicTest, SweepsStaleTempsFromCrashedSavers) {
  CrashSimEnv env;
  const std::string path = "/d/state";
  // Plant strandings from "earlier incarnations": matching temp names that
  // no live saver owns, plus an unrelated file that must survive.
  ASSERT_TRUE(WriteAll(&env, "/d/state.tmp.999.0", "junk", true, true).ok());
  ASSERT_TRUE(WriteAll(&env, "/d/state.tmp.999.7", "junk", true, true).ok());
  ASSERT_TRUE(WriteAll(&env, "/d/state2.tmp.999.0", "other", true, true).ok());
  int swept = 0;
  ASSERT_TRUE(
      WriteFileAtomic(path, "x", RetryPolicy::None(), &env, &swept).ok());
  EXPECT_EQ(swept, 2);
  EXPECT_FALSE(env.FileExists("/d/state.tmp.999.0"));
  EXPECT_FALSE(env.FileExists("/d/state.tmp.999.7"));
  EXPECT_TRUE(env.FileExists("/d/state2.tmp.999.0"));  // not our target's
  EXPECT_EQ(MustRead(&env, path), "x");
}

TEST(WriteFileAtomicTest, ConcurrentSaversToOnePathBothSucceed) {
  // Regression for the fixed `.tmp` name: two racing savers used to clobber
  // each other's temp file. With unique names + the in-flight registry,
  // both succeed and neither's sweep eats the other's live temp.
  CrashSimEnv env;
  const std::string path = "/d/state";
  constexpr int kRounds = 50;
  Status status_a = Status::Ok();
  Status status_b = Status::Ok();
  std::thread a([&] {
    for (int i = 0; i < kRounds && status_a.ok(); ++i) {
      status_a = WriteFileAtomic(path, "aaaa", RetryPolicy::None(), &env);
    }
  });
  std::thread b([&] {
    for (int i = 0; i < kRounds && status_b.ok(); ++i) {
      status_b = WriteFileAtomic(path, "bbbb", RetryPolicy::None(), &env);
    }
  });
  a.join();
  b.join();
  ASSERT_TRUE(status_a.ok()) << status_a;
  ASSERT_TRUE(status_b.ok()) << status_b;
  const std::string final = MustRead(&env, path);
  EXPECT_TRUE(final == "aaaa" || final == "bbbb") << final;
  for (const std::string& live : env.LiveFiles()) {
    EXPECT_EQ(live.find(".tmp."), std::string::npos) << live;
  }
}

TEST(WriteFileAtomicTest, PosixSweepRemovesPlantedStaleTemp) {
  Env* env = DefaultEnv();
  const std::string path = TestTempPath("sweep_target");
  ASSERT_TRUE(
      WriteAll(env, path + ".tmp.424242.0", "stranded", true, false).ok());
  int swept = 0;
  ASSERT_TRUE(
      WriteFileAtomic(path, "img", RetryPolicy::None(), env, &swept).ok());
  EXPECT_GE(swept, 1);
  EXPECT_FALSE(env->FileExists(path + ".tmp.424242.0"));
  EXPECT_EQ(MustRead(env, path), "img");
  ASSERT_TRUE(env->RemoveFile(path).ok());
}

// --- CatalogWal on the simulator ------------------------------------------

TEST(CatalogWalEnvTest, AppendAcksAreDurable) {
  CrashSimEnv env;
  const std::string path = "/d/wal";
  auto wal = CatalogWal::Open(path, 0, &env);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 1, "/r/s").ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kRemoveView, 1, "").ok());
  env.CutPower();  // no clean shutdown of any kind
  env.Reboot();
  auto records = CatalogWal::ReadAll(path, &env);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // both acks survived the cut
  EXPECT_EQ((*records)[0].xpath, "/r/s");
  EXPECT_EQ((*records)[1].op, CatalogWalOp::kRemoveView);
}

TEST(CatalogWalEnvTest, TornAppendIsRepairedAndRetried) {
  CrashSimEnv env;
  const std::string path = "/d/wal";
  auto wal = CatalogWal::Open(path, 0, &env);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 1, "/r/s").ok());
  // One-shot EIO on the next append: half the record lands, then the
  // retry must truncate the torn tail and write a clean copy.
  env.ScheduleFailure(0, FailMode::kEio);
  auto acked = (*wal)->Append(CatalogWalOp::kAddView, 2, "/r/t");
  ASSERT_TRUE(acked.ok()) << acked.status();
  EXPECT_EQ(*acked, 2u);
  auto records = CatalogWal::ReadAll(path, &env);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // no duplicate, no torn garbage between
  EXPECT_EQ((*records)[1].view_id, 2);
  // The file decodes cleanly end to end (no clipped bytes).
  uint64_t intact = 0;
  uint64_t clipped = 0;
  ASSERT_TRUE(CatalogWal::ReadAll(path, &env, &intact, &clipped).ok());
  EXPECT_EQ(clipped, 0u);
}

TEST(CatalogWalEnvTest, FailedTruncateKeepsLogReadableAndRecovers) {
  CrashSimEnv env;
  const std::string path = "/d/wal";
  auto wal = CatalogWal::Open(path, 0, &env);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 1, "/r/s").ok());
  env.ScheduleFailure(0, FailMode::kEio, /*sticky=*/true);
  ASSERT_FALSE((*wal)->Truncate().ok());
  env.ClearFailure();
  // The failed truncate lost nothing.
  auto records = CatalogWal::ReadAll(path, &env);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
  // Appends still work (sequence keeps increasing), and a later truncate
  // succeeds.
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 2, "/r/t").ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  records = CatalogWal::ReadAll(path, &env);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  ASSERT_TRUE((*wal)->Append(CatalogWalOp::kAddView, 3, "/r/u").ok());
  EXPECT_EQ((*wal)->last_seq(), 3u);
}

// --- MeteredEnv ------------------------------------------------------------

TEST(MeteredEnvTest, CountsSyncsAndSplitsErrorClasses) {
  CrashSimEnv sim;
  MetricsRegistry registry;
  Counter* syncs = registry.GetCounter("xvr.storage.syncs");
  Counter* io_errors = registry.GetCounter("xvr.storage.io_errors");
  Counter* enospc = registry.GetCounter("xvr.storage.enospc");
  MeteredEnv env(&sim, syncs, io_errors, enospc);

  ASSERT_TRUE(WriteAll(&env, "/d/f", "x", /*sync=*/true, /*sync_dir=*/true)
                  .ok());
  EXPECT_EQ(syncs->Value(), 2u);  // one Sync + one SyncDir
  EXPECT_EQ(io_errors->Value(), 0u);

  sim.ScheduleFailure(0, FailMode::kEnospc);
  EXPECT_FALSE(WriteAll(&env, "/d/g", "x", true, true).ok());
  EXPECT_EQ(io_errors->Value(), 1u);
  EXPECT_EQ(enospc->Value(), 1u);

  sim.ScheduleFailure(0, FailMode::kEio);
  EXPECT_FALSE(WriteAll(&env, "/d/g", "x", true, true).ok());
  EXPECT_EQ(io_errors->Value(), 2u);
  EXPECT_EQ(enospc->Value(), 1u);  // EIO is not out-of-space

  // NOT_FOUND is not an I/O error.
  EXPECT_EQ(env.ReadFile("/d/missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(io_errors->Value(), 2u);
}

}  // namespace
}  // namespace xvr
