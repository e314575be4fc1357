#include "common/file_util.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <utility>

#include "common/fault_injection.h"
#include "common/mutex.h"
#include "storage/env.h"

namespace xvr {
namespace {

// Temp siblings of `path` are named `path + ".tmp." + pid + "." + n` with a
// process-wide monotone n, so concurrent savers to the same target never
// clobber each other's temp. The registry below tracks temps currently in
// flight in *this* process; the post-save sweep removes any `.tmp.` sibling
// of the saved path that is not in flight — those are strandings from a
// crashed attempt (this process or an earlier incarnation).
class ActiveTempRegistry {
 public:
  static ActiveTempRegistry& Instance() {
    static ActiveTempRegistry* registry = new ActiveTempRegistry();
    return *registry;
  }

  void Add(const std::string& path) {
    MutexLock lock(&mu_);
    active_.insert(path);
  }
  void Remove(const std::string& path) {
    MutexLock lock(&mu_);
    active_.erase(path);
  }
  bool Contains(const std::string& path) const {
    MutexLock lock(&mu_);
    return active_.find(path) != active_.end();
  }

 private:
  ActiveTempRegistry() = default;
  mutable Mutex mu_;
  std::set<std::string> active_ XVR_GUARDED_BY(mu_);
};

// RAII in-flight marker for one temp path.
class ScopedActiveTemp {
 public:
  explicit ScopedActiveTemp(std::string path) : path_(std::move(path)) {
    ActiveTempRegistry::Instance().Add(path_);
  }
  ~ScopedActiveTemp() { ActiveTempRegistry::Instance().Remove(path_); }
  ScopedActiveTemp(const ScopedActiveTemp&) = delete;
  ScopedActiveTemp& operator=(const ScopedActiveTemp&) = delete;

 private:
  std::string path_;
};

std::string UniqueTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

Status WriteFileAtomicOnce(const std::string& path, const std::string& bytes,
                           Env* env) {
  XVR_FAULT_POINT("file.write_atomic",
                  return Status::IoError("injected: file.write_atomic " +
                                         path));
  const std::string tmp = UniqueTempPath(path);
  ScopedActiveTemp in_flight(tmp);
  Status status = Status::Ok();
  {
    std::unique_ptr<WritableFile> file;
    auto opened = env->NewWritableFile(tmp, WriteMode::kTruncate);
    if (!opened.ok()) {
      return opened.status();
    }
    file = std::move(opened).value();
    status = file->Append(bytes);
    if (status.ok()) {
      // fsync the temp BEFORE the rename: otherwise a power cut can make
      // the rename durable first and leave a zero-length "new" image.
      status = file->Sync();
    }
    if (status.ok()) {
      status = file->Close();
    }
  }
  if (status.ok()) {
    status = env->RenameFile(tmp, path);
  }
  if (status.ok()) {
    // fsync the parent directory: the rename is durable only after this.
    status = env->SyncDir(DirOf(path));
  }
  if (!status.ok()) {
    const Status removed = env->RemoveFile(tmp);
    (void)removed;  // best effort; a stranded temp is swept by a later save
    return status;
  }
  return Status::Ok();
}

// Removes `.tmp.` siblings of `path` stranded by crashed attempts. Runs
// only after a successful save; sweep failures are ignored (the next save
// tries again).
int SweepStaleTemps(const std::string& path, Env* env) {
  const std::string dir = DirOf(path);
  const std::string prefix = BaseNameOf(path) + ".tmp.";
  auto listed = env->ListDir(dir);
  if (!listed.ok()) {
    return 0;
  }
  int removed = 0;
  for (const std::string& name : *listed) {
    if (name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string stale = dir + "/" + name;
    if (ActiveTempRegistry::Instance().Contains(stale)) {
      continue;  // another saver's attempt, still in flight
    }
    if (env->RemoveFile(stale).ok()) {
      ++removed;
    }
  }
  return removed;
}

}  // namespace

uint64_t DeriveJitterSeed() {
  // A counter mixed with the clock, so two retry loops racing on the same
  // blip draw different schedules (the whole point of the jitter).
  static std::atomic<uint64_t> counter{0};
  const uint64_t tick = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return tick ^ (counter.fetch_add(1, std::memory_order_relaxed) *
                 0x9e3779b97f4a7c15ULL);
}

int64_t RetryBackoffMicros(const RetryPolicy& retry, int attempt, Rng* rng) {
  if (attempt <= 1 || retry.base_backoff_micros <= 0) {
    return 0;
  }
  int64_t backoff = retry.base_backoff_micros;
  // Left-shift capped against both the policy max and overflow.
  for (int i = 2; i < attempt && backoff < retry.max_backoff_micros; ++i) {
    backoff *= 2;
  }
  if (backoff > retry.max_backoff_micros) {
    backoff = retry.max_backoff_micros;
  }
  double jitter = retry.jitter;
  if (jitter < 0) {
    jitter = 0;
  }
  if (jitter > 1) {
    jitter = 1;
  }
  if (jitter == 0 || rng == nullptr) {
    return backoff;
  }
  // Uniform in [(1 - jitter) * backoff, backoff]: never sleeps longer than
  // the deterministic schedule, spreads retriers across the window.
  const double scale = 1.0 - jitter * rng->NextDouble();
  const int64_t jittered =
      static_cast<int64_t>(static_cast<double>(backoff) * scale);
  return jittered < 1 ? 1 : jittered;
}

Result<std::string> ReadFileToString(const std::string& path, Env* env) {
  XVR_FAULT_POINT("file.read",
                  return Status::IoError("injected: file.read " + path));
  if (env == nullptr) {
    env = DefaultEnv();
  }
  return env->ReadFile(path);
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       const RetryPolicy& retry, Env* env,
                       int* stale_tmps_removed) {
  if (env == nullptr) {
    env = DefaultEnv();
  }
  XVR_RETURN_IF_ERROR(WithRetry(
      retry, [&] { return WriteFileAtomicOnce(path, bytes, env); }));
  const int swept = SweepStaleTemps(path, env);
  if (stale_tmps_removed != nullptr) {
    *stale_tmps_removed = swept;
  }
  return Status::Ok();
}

}  // namespace xvr
