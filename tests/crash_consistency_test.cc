// Crash-point exploration: drive the real engine persistence stack
// (EnableCatalogWal / AddView / RemoveView / SaveState / LoadStateWithWal)
// against CrashSimEnv, cut simulated power at EVERY storage operation index
// of a fixed mutation workload, reload from the surviving durable bytes,
// and check the recovery oracle:
//
//   recovered catalog == state after some prefix p of the mutation
//   sequence, with acked <= p <= attempted
//
// i.e. no acknowledged mutation is ever lost (the durability contract: the
// WAL record is fdatasync'd before the ack), at most the single in-flight
// mutation is ambiguous, and the recovered image is never torn or stale —
// a durable state image must always load. The sweep runs under every
// torn-tail policy, so "the un-fsync'd tail half-survived" and "the tail
// survived corrupted" are explored at every crash point, not just
// "volatile bytes vanish".
//
// The quick mode (plain ctest) runs the kDropAll sweep at every operation
// plus the other tail policies at every third operation; set
// XVR_CRASH_EXHAUSTIVE=1 (the CI crash-consistency job's long mode) to run
// every policy — and the eager-metadata-namespace filesystem model — at
// every operation index.
//
// Non-fatal I/O errors are explored the same way: a one-shot EIO at every
// operation index must be either absorbed by the retry layer or surfaced
// as a failed mutation that is NOT visible in the catalog, with the engine
// still answering afterwards; a sticky ENOSPC ("disk full") must leave the
// engine serving the prior image and recover once space frees up.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "storage/crash_sim_env.h"
#include "storage/env.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

constexpr char kImage[] = "/state/engine.img";
constexpr char kWal[] = "/state/catalog.wal";

bool ExhaustiveMode() {
  const char* env = std::getenv("XVR_CRASH_EXHAUSTIVE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
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

// --- the workload ----------------------------------------------------------
//
// Five catalog mutations with a SaveState after the 2nd and 4th, so the
// sweep crosses every interesting window: WAL-only tail, image save
// (temp/sync/rename/syncdir), the post-save WAL truncate, and the gap
// between image install and truncate where stale WAL records coexist with
// the image that already covers them.

constexpr int kNumMutations = 5;

// Applies mutation `i` (0-based). `ids` accumulates one entry per applied
// mutation (the assigned view id, or -1 for the remove) — id assignment is
// deterministic, so the oracle replay sees the same ids.
Status ApplyMutation(Engine& engine, int i, std::vector<int32_t>* ids) {
  switch (i) {
    case 0: {
      auto r = engine.AddView(Parse(engine, "/r/s/p"));
      XVR_RETURN_IF_ERROR(r.status());
      ids->push_back(*r);
      return Status::Ok();
    }
    case 1: {
      auto r = engine.AddView(Parse(engine, "/r/s[q]"));
      XVR_RETURN_IF_ERROR(r.status());
      ids->push_back(*r);
      return Status::Ok();
    }
    case 2: {
      auto r = engine.AddView(Parse(engine, "/r/t/u"));
      XVR_RETURN_IF_ERROR(r.status());
      ids->push_back(*r);
      return Status::Ok();
    }
    case 3: {
      XVR_RETURN_IF_ERROR(engine.RemoveView((*ids)[0]));
      ids->push_back(-1);
      return Status::Ok();
    }
    case 4: {
      auto r = engine.AddView(Parse(engine, "/r/s"));
      XVR_RETURN_IF_ERROR(r.status());
      ids->push_back(*r);
      return Status::Ok();
    }
  }
  return Status::Internal("no such mutation");
}

bool SaveAfter(int applied) { return applied == 2 || applied == 4; }

struct RunOutcome {
  int acked = 0;      // mutations acknowledged before the first failure
  int attempted = 0;  // acked, +1 when the failing step was a mutation
  bool completed = false;
};

// Runs the workload until the first failure (a scheduled crash) or to
// completion. EnableCatalogWal and SaveState are part of the op space but
// are not mutations: a crash inside them leaves attempted == acked.
RunOutcome RunWorkload(Engine& engine, std::vector<int32_t>* ids) {
  RunOutcome out;
  if (!engine.EnableCatalogWal(kWal).ok()) {
    return out;
  }
  for (int m = 0; m < kNumMutations; ++m) {
    out.attempted = out.acked + 1;
    if (!ApplyMutation(engine, m, ids).ok()) {
      return out;
    }
    out.acked = m + 1;
    out.attempted = out.acked;
    if (SaveAfter(out.acked) && !engine.SaveState(kImage).ok()) {
      return out;
    }
  }
  out.completed = true;
  return out;
}

// --- the oracle ------------------------------------------------------------

// Canonical catalog signature: view id -> minimized pattern as XPath.
// Quarantined views are excluded by view_ids() — recovery must never
// quarantine anything in this workload.
using ViewSig = std::map<int32_t, std::string>;

ViewSig Signature(Engine& engine) {
  ViewSig sig;
  for (const int32_t id : engine.view_ids()) {
    sig[id] = PatternToXPath(*engine.view(id), engine.labels());
  }
  return sig;
}

std::string SigToString(const ViewSig& sig) {
  std::string out = "{";
  for (const auto& [id, xpath] : sig) {
    out += std::to_string(id) + ":" + xpath + " ";
  }
  return out + "}";
}

// signature[p] = catalog after the first p mutations, replayed on a plain
// in-memory engine (no WAL, no Env).
std::vector<ViewSig> OracleSignatures() {
  std::vector<ViewSig> sigs;
  Engine oracle(TinyDoc());
  std::vector<int32_t> ids;
  sigs.push_back(Signature(oracle));
  for (int m = 0; m < kNumMutations; ++m) {
    EXPECT_TRUE(ApplyMutation(oracle, m, &ids).ok());
    sigs.push_back(Signature(oracle));
  }
  return sigs;
}

// Recovers an engine from whatever survived on `env`. A durable image must
// always load (never torn, never stale-beyond-repair); with no image the
// WAL alone rebuilds the catalog from the base document.
std::unique_ptr<Engine> Recover(CrashSimEnv* env, const std::string& context) {
  EngineOptions opts;
  opts.env = env;
  std::unique_ptr<Engine> recovered;
  if (env->FileExists(kImage)) {
    auto loaded = Engine::LoadStateWithWal(kImage, kWal, opts);
    EXPECT_TRUE(loaded.ok())
        << context << ": durable image failed to load: " << loaded.status();
    if (!loaded.ok()) {
      return nullptr;
    }
    recovered = std::move(loaded).value();
  } else {
    recovered = std::make_unique<Engine>(TinyDoc(), opts);
    const Status replayed = recovered->EnableCatalogWal(kWal);
    EXPECT_TRUE(replayed.ok()) << context << ": WAL replay: " << replayed;
    if (!replayed.ok()) {
      return nullptr;
    }
  }
  EXPECT_TRUE(recovered->quarantined_view_ids().empty())
      << context << ": recovery quarantined a view";
  return recovered;
}

// Differential probe: the view-based strategy must agree with the
// catalog-independent base-node-index strategy on the recovered engine
// (when the probe is answerable from the recovered views at all).
void ProbeRecovered(Engine& engine, const std::string& context) {
  const TreePattern probe = Parse(engine, "/r/s/p");
  auto base = engine.AnswerQuery(probe, AnswerStrategy::kBaseNodeIndex);
  ASSERT_TRUE(base.ok()) << context << ": " << base.status();
  auto views = engine.AnswerQuery(probe, AnswerStrategy::kHeuristicFiltered);
  if (views.ok()) {
    EXPECT_EQ(views->codes, base->codes) << context;
  }
}

// Counts the ops of one fault-free workload run (the crash-point space).
uint64_t CountWorkloadOps() {
  CrashSimEnv env;
  EngineOptions opts;
  opts.env = &env;
  Engine engine(TinyDoc(), opts);
  std::vector<int32_t> ids;
  const RunOutcome out = RunWorkload(engine, &ids);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.acked, kNumMutations);
  return env.op_count();
}

// --- the sweeps ------------------------------------------------------------

TEST(CrashConsistencyTest, PowerCutAtEveryOpIndex) {
  const std::vector<ViewSig> oracle = OracleSignatures();
  const uint64_t total_ops = CountWorkloadOps();
  ASSERT_GT(total_ops, 20u);  // the workload really hits storage

  struct Variant {
    TornTail policy;
    bool eager_namespace;
    int stride;  // quick mode runs this variant at every stride-th op
  };
  std::vector<Variant> variants = {
      {TornTail::kDropAll, false, 1},
      {TornTail::kKeepAll, false, 3},
      {TornTail::kKeepHalf, false, 3},
      {TornTail::kCorruptLastByte, false, 3},
      {TornTail::kDropAll, true, 3},
  };
  if (ExhaustiveMode()) {
    variants = {};
    for (const TornTail policy :
         {TornTail::kDropAll, TornTail::kKeepAll, TornTail::kKeepHalf,
          TornTail::kCorruptLastByte}) {
      variants.push_back({policy, false, 1});
      variants.push_back({policy, true, 1});
    }
  }

  for (const Variant& variant : variants) {
    for (uint64_t k = 0; k < total_ops; k += variant.stride) {
      const std::string context =
          "cut@" + std::to_string(k) + " policy=" +
          std::to_string(static_cast<int>(variant.policy)) +
          (variant.eager_namespace ? " eager-ns" : "");
      CrashSimEnv env;
      env.SetTornTail(variant.policy);
      env.set_persist_unsynced_namespace(variant.eager_namespace);
      EngineOptions opts;
      opts.env = &env;
      RunOutcome out;
      {
        Engine engine(TinyDoc(), opts);
        std::vector<int32_t> ids;
        env.ScheduleFailure(k, FailMode::kPowerCut);
        out = RunWorkload(engine, &ids);
      }
      ASSERT_FALSE(out.completed) << context;  // the cut really landed
      env.Reboot();

      std::unique_ptr<Engine> recovered = Recover(&env, context);
      ASSERT_NE(recovered, nullptr) << context;
      const ViewSig got = Signature(*recovered);
      bool matched = false;
      for (int p = out.acked; p <= out.attempted && !matched; ++p) {
        matched = got == oracle[static_cast<size_t>(p)];
      }
      EXPECT_TRUE(matched)
          << context << ": recovered " << SigToString(got)
          << " is not the state after any p in [" << out.acked << ", "
          << out.attempted << "] acked/attempted mutations";
      ProbeRecovered(*recovered, context);

      // Recovered service is fully functional: the WAL takes new
      // mutations and the next save succeeds.
      auto next = recovered->AddView(Parse(*recovered, "/r/s/q"));
      EXPECT_TRUE(next.ok()) << context << ": " << next.status();
      EXPECT_TRUE(recovered->SaveState(kImage).ok()) << context;
    }
  }
}

// Satellite: the SaveState window in detail. A crash anywhere inside
// SaveState — the temp write, its fsync, the rename, the directory fsync,
// the WAL truncate, and the gap between image install and truncate — can
// lose no mutation (they were all acked before the save started) and must
// never double-apply one (stale WAL records at or below the image
// checkpoint are skipped on replay; a double-applied remove would fail the
// reload outright).
TEST(CrashConsistencyTest, CrashSweepThroughSaveStateWindow) {
  const std::vector<ViewSig> oracle = OracleSignatures();

  // Locate the second save's op window [begin, end) via a dry run.
  uint64_t save_begin = 0;
  uint64_t save_end = 0;
  {
    CrashSimEnv env;
    EngineOptions opts;
    opts.env = &env;
    Engine engine(TinyDoc(), opts);
    std::vector<int32_t> ids;
    ASSERT_TRUE(engine.EnableCatalogWal(kWal).ok());
    for (int m = 0; m < 4; ++m) {
      ASSERT_TRUE(ApplyMutation(engine, m, &ids).ok());
      if (SaveAfter(m + 1) && m + 1 != 4) {
        ASSERT_TRUE(engine.SaveState(kImage).ok());
      }
    }
    save_begin = env.op_count();
    ASSERT_TRUE(engine.SaveState(kImage).ok());
    save_end = env.op_count();
  }
  ASSERT_GT(save_end, save_begin + 5);  // temp+sync+rename+syncdir+truncate

  for (uint64_t k = save_begin; k < save_end; ++k) {
    const std::string context = "save-window cut@" + std::to_string(k);
    CrashSimEnv env;
    EngineOptions opts;
    opts.env = &env;
    RunOutcome out;
    {
      Engine engine(TinyDoc(), opts);
      std::vector<int32_t> ids;
      env.ScheduleFailure(k, FailMode::kPowerCut);
      out = RunWorkload(engine, &ids);
    }
    ASSERT_FALSE(out.completed) << context;
    ASSERT_EQ(out.acked, 4) << context;  // the cut landed inside the save
    // Usually no mutation is in flight (attempted == 4). The one exception:
    // a cut landing exactly on the save's best-effort stale-temp sweep does
    // not fail the save — image and truncate are already durable — so the
    // workload proceeds to attempt mutation 5 against the dead disk. That
    // attempt can never ack or write anything, so recovery is still exactly
    // state(4) either way.
    ASSERT_LE(out.attempted, 5) << context;
    env.Reboot();

    std::unique_ptr<Engine> recovered = Recover(&env, context);
    ASSERT_NE(recovered, nullptr) << context;
    // Exactly state(4): nothing lost, nothing double-applied.
    EXPECT_EQ(Signature(*recovered), oracle[4])
        << context << ": recovered " << SigToString(Signature(*recovered));

    // Round-trip once more: save on the recovered engine, reload, same
    // catalog — the second recovery must also skip any stale records.
    ASSERT_TRUE(recovered->SaveState(kImage).ok()) << context;
    recovered.reset();
    std::unique_ptr<Engine> again = Recover(&env, context + " (reload)");
    ASSERT_NE(again, nullptr) << context;
    EXPECT_EQ(Signature(*again), oracle[4]) << context << " (reload)";
  }
}

// A one-shot EIO at every op index: either the retry layer absorbs it (the
// workload completes) or the failing step surfaces an error — and in both
// cases the live catalog equals the acked prefix exactly, the engine keeps
// answering, and a clean reload agrees.
TEST(CrashConsistencyTest, TransientEioAtEveryOpIndex) {
  const std::vector<ViewSig> oracle = OracleSignatures();
  const uint64_t total_ops = CountWorkloadOps();
  const uint64_t stride = ExhaustiveMode() ? 1 : 2;

  for (uint64_t k = 0; k < total_ops; k += stride) {
    const std::string context = "eio@" + std::to_string(k);
    CrashSimEnv env;
    EngineOptions opts;
    opts.env = &env;
    RunOutcome out;
    uint64_t io_errors = 0;
    {
      Engine engine(TinyDoc(), opts);
      std::vector<int32_t> ids;
      env.ScheduleFailure(k, FailMode::kEio);
      out = RunWorkload(engine, &ids);
      // No torn state is ever visible live: exactly the acked mutations.
      EXPECT_EQ(Signature(engine), oracle[static_cast<size_t>(out.acked)])
          << context;
      ProbeRecovered(engine, context);
      io_errors = engine.ServerStats().storage_io_errors;
    }
    // The metering saw the blip — unless the injection landed on an
    // existence probe, which has no error channel to meter (the workload
    // then completes untouched).
    if (!out.completed) {
      EXPECT_GE(io_errors, 1u) << context;
    }

    // A clean (no-crash) reload of the durable state also sees exactly the
    // acked prefix: every ack was fdatasync'd before it was returned.
    std::unique_ptr<Engine> recovered = Recover(&env, context);
    ASSERT_NE(recovered, nullptr) << context;
    EXPECT_EQ(Signature(*recovered), oracle[static_cast<size_t>(out.acked)])
        << context << ": recovered " << SigToString(Signature(*recovered));
  }
}

// Disk full: mutations and saves fail with the tagged ENOSPC status, the
// engine keeps serving the prior catalog, and everything works again once
// space frees up.
TEST(CrashConsistencyTest, FullDiskKeepsServingPriorImage) {
  const std::vector<ViewSig> oracle = OracleSignatures();
  CrashSimEnv env;
  EngineOptions opts;
  opts.env = &env;
  Engine engine(TinyDoc(), opts);
  std::vector<int32_t> ids;
  ASSERT_TRUE(engine.EnableCatalogWal(kWal).ok());
  ASSERT_TRUE(ApplyMutation(engine, 0, &ids).ok());
  ASSERT_TRUE(ApplyMutation(engine, 1, &ids).ok());
  ASSERT_TRUE(engine.SaveState(kImage).ok());

  env.ScheduleFailure(0, FailMode::kEnospc, /*sticky=*/true);
  // The mutation fails with the ENOSPC-tagged status and is not published.
  auto rejected = engine.AddView(Parse(engine, "/r/t/u"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsNoSpace(rejected.status())) << rejected.status();
  EXPECT_EQ(Signature(engine), oracle[2]);
  // So does a save; the prior image stays durable and serving continues.
  const Status save = engine.SaveState(kImage);
  ASSERT_FALSE(save.ok());
  EXPECT_TRUE(IsNoSpace(save)) << save;
  ProbeRecovered(engine, "enospc");

  const xvr::ServerStats stats = engine.ServerStats();
  EXPECT_GE(stats.storage_enospc, 1u);
  EXPECT_GE(stats.storage_io_errors, stats.storage_enospc);
  EXPECT_GE(stats.storage_syncs, 1u);

  // Space frees up: the same mutation and save now succeed.
  env.ClearFailure();
  ASSERT_TRUE(ApplyMutation(engine, 2, &ids).ok());
  ASSERT_TRUE(engine.SaveState(kImage).ok());
  EXPECT_EQ(Signature(engine), oracle[3]);

  std::unique_ptr<Engine> recovered = Recover(&env, "enospc reload");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(Signature(*recovered), oracle[3]);
}

// The recovery metrics: replayed WAL records and clipped torn tails are
// visible in ServerStats (xvr.storage.recovery.*), and a save that sweeps
// a stranded temp reports it.
TEST(CrashConsistencyTest, RecoveryCountersReportReplayAndClipping) {
  CrashSimEnv env;
  EngineOptions opts;
  opts.env = &env;
  {
    Engine engine(TinyDoc(), opts);
    std::vector<int32_t> ids;
    ASSERT_TRUE(engine.EnableCatalogWal(kWal).ok());
    ASSERT_TRUE(ApplyMutation(engine, 0, &ids).ok());
    ASSERT_TRUE(ApplyMutation(engine, 1, &ids).ok());
  }
  // A torn tail: garbage appended past the last acked record.
  {
    auto file = env.NewWritableFile(kWal, WriteMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("torn garbage").ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }

  Engine recovered(TinyDoc(), opts);
  ASSERT_TRUE(recovered.EnableCatalogWal(kWal).ok());
  xvr::ServerStats stats = recovered.ServerStats();
  EXPECT_EQ(stats.storage_recovery_wal_records_replayed, 2u);
  EXPECT_EQ(stats.storage_recovery_tail_clipped, 1u);
  EXPECT_EQ(recovered.num_views(), 2u);

  // A stranded temp from a "crashed" saver is swept by the next save and
  // counted.
  {
    auto tmp = env.NewWritableFile(std::string(kImage) + ".tmp.31337.0",
                                   WriteMode::kTruncate);
    ASSERT_TRUE(tmp.ok());
    ASSERT_TRUE((*tmp)->Append("stranded").ok());
  }
  ASSERT_TRUE(recovered.SaveState(kImage).ok());
  stats = recovered.ServerStats();
  EXPECT_GE(stats.storage_stale_tmp_removed, 1u);
  EXPECT_FALSE(env.FileExists(std::string(kImage) + ".tmp.31337.0"));
}

}  // namespace
}  // namespace xvr
