#ifndef XVR_COMMON_FILE_UTIL_H_
#define XVR_COMMON_FILE_UTIL_H_

// Whole-file I/O with crash-durable writes and transient-failure retry,
// built on the storage Env (storage/env.h).
//
// Every persisted image (engine state, standalone KvStore files) goes
// through WriteFileAtomic: the bytes land in a uniquely named temporary
// sibling, are fsync'd there, renamed over the target, and the parent
// directory is fsync'd — so a crash mid-save, *including a power cut*,
// leaves either the old image or the new one durable on disk, never a torn
// half-write, a zero-length rename-before-data husk, or a vanished rename.
// (Torn images are additionally caught at load time by the trailing
// checksums, but the sync-then-rename-then-syncdir ordering means a crash
// does not cost the previous good state.) The power-cut claim is proved by
// the crash-point exploration in tests/crash_consistency_test.cc, which
// cuts simulated power at every Env operation of a save.
//
// Writes that serve durability retry transient I/O failures with capped
// exponential backoff before giving up: a blip (EINTR, a momentarily full
// buffer, an injected fault) costs a few hundred microseconds instead of a
// failed mutation. Each attempt re-evaluates the operation's fault point,
// so the fault-injection registry's "fail N times then succeed" mode
// (FaultSpec::max_fires) exercises the retry path deterministically.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/status.h"

namespace xvr {

class Env;

// Bounded retry with capped exponential backoff: attempt 1 runs
// immediately; attempt k+1 sleeps min(base << (k-1), max) microseconds,
// scaled by a random factor in [1 - jitter, 1].
//
// The jitter decorrelates retriers. Without it, writers that failed on the
// same underlying blip (a full disk flushing, an injected fault window, a
// stalled NFS server) all recompute the *same* deterministic backoff and
// retry in lockstep — the thundering herd re-creates the very contention it
// is backing off from on every attempt. Subtracting a random slice spreads
// the herd across the backoff window while never sleeping longer than the
// un-jittered policy would.
struct RetryPolicy {
  int max_attempts = 3;
  int64_t base_backoff_micros = 200;
  int64_t max_backoff_micros = 5'000;
  // Fraction of each backoff randomized away, in [0, 1]: the sleep is
  // uniform in [(1 - jitter) * backoff, backoff]. 0 restores the fully
  // deterministic schedule.
  double jitter = 0.25;
  // Seed for the jitter RNG; 0 derives a per-call seed (different every
  // retry loop — the production default), non-zero makes the schedule
  // reproducible for tests.
  uint64_t jitter_seed = 0;

  static RetryPolicy None() { return RetryPolicy{1, 0, 0, 0.0, 0}; }
};

// The sleep before attempt `attempt` (1-based; attempt 1 never sleeps):
// min(base << (attempt - 2), max) scaled by the jitter draw from `rng`.
// Exposed for deterministic-schedule tests; WithRetry uses exactly this.
int64_t RetryBackoffMicros(const RetryPolicy& retry, int attempt, Rng* rng);

// Per-call jitter seed when the policy does not pin one (see
// RetryPolicy::jitter_seed).
uint64_t DeriveJitterSeed();

// Runs `attempt` under `retry`: transient I/O failures are retried with
// capped exponential backoff (jittered per RetryBackoffMicros); any other
// status (including Ok) returns immediately.
template <typename Fn>
Status WithRetry(const RetryPolicy& retry, const Fn& attempt) {
  Status status = Status::Ok();
  const int attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;
  Rng rng(retry.jitter_seed != 0 ? retry.jitter_seed : DeriveJitterSeed());
  for (int i = 0; i < attempts; ++i) {
    const int64_t backoff = RetryBackoffMicros(retry, i + 1, &rng);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    status = attempt();
    if (status.code() != StatusCode::kIoError) {
      return status;
    }
  }
  return status;
}

// Reads the entire file into a string. NOT_FOUND when the path does not
// exist. `env` defaults to DefaultEnv().
Result<std::string> ReadFileToString(const std::string& path,
                                     Env* env = nullptr);

// Writes `bytes` to `path` durably: unique temp sibling -> fsync temp ->
// rename over target -> fsync parent directory. On any failure the
// temporary file is removed (best effort) and `path` is left untouched —
// the previous image keeps serving. I/O failures are retried per `retry`
// (whole attempts). After a successful save, temp siblings stranded by
// earlier crashes of *any* process are swept; `stale_tmps_removed`, when
// non-null, receives how many were deleted (for the
// xvr.storage.stale_tmp_removed counter).
Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       const RetryPolicy& retry = RetryPolicy(),
                       Env* env = nullptr, int* stale_tmps_removed = nullptr);

}  // namespace xvr

#endif  // XVR_COMMON_FILE_UTIL_H_
