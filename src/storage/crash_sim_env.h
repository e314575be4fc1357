#ifndef XVR_STORAGE_CRASH_SIM_ENV_H_
#define XVR_STORAGE_CRASH_SIM_ENV_H_

// An in-memory Env that models exactly what a power cut may do.
//
// Every file is an inode holding two byte strings: `data` (what the live
// filesystem shows — reads, appends, renames all see it) and `durable`
// (what has actually reached stable storage). Append grows only `data`;
// WritableFile::Sync copies `data` into `durable`. The *namespace* (which
// directory entries exist, and which inode each points at) is likewise
// tracked twice: creations, renames and removals mutate the live map
// immediately but reach the durable map only when SyncDir runs on the
// parent directory — exactly the POSIX contract PosixEnv implements with
// fsync(2) on a directory fd. Open files reference inodes, not paths, so a
// file renamed while a writer holds it keeps receiving that writer's
// appends (fd semantics).
//
// CutPower() rebuilds the live state from the durable state. Un-synced
// appends become a "torn tail": the volatile suffix of each surviving
// inode is dropped, kept, half-kept, or kept-with-the-last-byte-flipped
// depending on the TornTail policy, modelling the freedom a real disk has
// with un-fsynced sectors. Un-syncdir'd namespace ops vanish (the rename
// never happened; the created file does not exist) — unless
// set_persist_unsynced_namespace(true), which models filesystems that
// journal metadata eagerly (the ext4 rename-before-data hazard: the rename
// survives but the renamed file's un-synced data does not).
//
// Failure injection: ScheduleFailure(k, mode) makes the k-th Env operation
// from now fail *without executing*. kPowerCut additionally cuts power, and
// every later operation fails until Reboot(). kEio and kEnospc return an
// IO_ERROR (tagged [ENOSPC] for kEnospc); sticky mode keeps failing every
// subsequent *mutating* operation — reads keep working, modelling a full
// disk that still serves. A non-sticky kEio scheduled onto an Append
// applies HALF the bytes before failing, so callers' torn-append repair
// (CatalogWal's TruncateTo) is exercised, not just clean failures.
//
// The crash-point exploration harness (tests/crash_consistency_test.cc)
// drives the real writers against this Env at every operation index and
// checks the recovery oracle after each simulated cut.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/env.h"

namespace xvr {

// What happens to each surviving inode's volatile suffix at a power cut.
enum class TornTail : uint8_t {
  kDropAll,          // none of the un-synced bytes made it
  kKeepAll,          // all of them happened to hit disk anyway
  kKeepHalf,         // a prefix survived: torn mid-append
  kCorruptLastByte,  // everything "survived" but the final byte is flipped
};

enum class FailMode : uint8_t {
  kPowerCut,  // op fails, volatile state is dropped, env is off until Reboot
  kEio,       // op fails with IO_ERROR (appends tear: half the bytes land)
  kEnospc,    // op fails with IO_ERROR tagged [ENOSPC]
};

class CrashSimEnv final : public Env {
 public:
  CrashSimEnv() = default;

  // --- Env ---
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;

  // --- failure injection ---

  // The `at_op`-th operation from now (0 = the very next one) fails without
  // executing. With sticky=true, every later mutating operation fails too
  // (kEio/kEnospc only; kPowerCut is inherently sticky until Reboot).
  void ScheduleFailure(uint64_t at_op, FailMode mode, bool sticky = false);
  void ClearFailure();

  // Cut power immediately (no scheduled op needed).
  void CutPower();
  // Restore service after a power cut. Everything that survived the cut is
  // fully durable afterwards.
  void Reboot();

  // How volatile suffixes behave at the next cut. Default kDropAll.
  void SetTornTail(TornTail policy);
  // Model eager-metadata-journal filesystems: at a cut, un-SyncDir'd
  // namespace ops survive anyway (but un-synced *data* still does not).
  void set_persist_unsynced_namespace(bool v);

  // --- introspection ---

  // Operations executed or failed so far (every Env/WritableFile call
  // counts exactly once).
  uint64_t op_count() const;
  // Paths with a live directory entry (what the running process sees).
  std::vector<std::string> LiveFiles() const;

 private:
  friend class SimWritableFile;

  struct Inode {
    std::string data;     // live bytes
    std::string durable;  // bytes on "disk"
  };
  using InodeRef = std::shared_ptr<Inode>;

  // Charges one operation and applies any scheduled failure. Returns
  // non-OK when the op must fail without executing. `mutating` gates
  // sticky EIO/ENOSPC (reads keep working on a full disk). When the
  // scheduled failure is a non-power-cut kEio and `tear_inode` is set,
  // half of `tear_data` lands in the inode before the error (torn append).
  Status CheckOp(const char* op, const std::string& path, bool mutating,
                 Inode* tear_inode = nullptr, std::string_view tear_data = {})
      XVR_REQUIRES(mu_);
  void CutPowerLocked() XVR_REQUIRES(mu_);
  Status FailStatus(const char* op, const std::string& path, FailMode mode)
      XVR_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, InodeRef> live_ XVR_GUARDED_BY(mu_);
  std::map<std::string, InodeRef> durable_ XVR_GUARDED_BY(mu_);

  uint64_t op_count_ XVR_GUARDED_BY(mu_) = 0;
  // Bumped at every power cut; open handles from before the cut are stale.
  uint64_t generation_ XVR_GUARDED_BY(mu_) = 0;
  bool failure_armed_ XVR_GUARDED_BY(mu_) = false;
  uint64_t fail_at_op_ XVR_GUARDED_BY(mu_) = 0;
  FailMode fail_mode_ XVR_GUARDED_BY(mu_) = FailMode::kEio;
  bool sticky_ XVR_GUARDED_BY(mu_) = false;
  bool sticky_active_ XVR_GUARDED_BY(mu_) = false;
  bool powered_off_ XVR_GUARDED_BY(mu_) = false;
  TornTail torn_tail_ XVR_GUARDED_BY(mu_) = TornTail::kDropAll;
  bool persist_unsynced_namespace_ XVR_GUARDED_BY(mu_) = false;
};

}  // namespace xvr

#endif  // XVR_STORAGE_CRASH_SIM_ENV_H_
