#include "storage/crash_sim_env.h"

#include <cerrno>
#include <utility>

namespace xvr {

// An open handle references the inode, not the path (POSIX fd semantics:
// appends keep landing in a file that was renamed underneath the writer).
// A power cut invalidates every open handle — the env bumps `generation_`
// and stale handles fail their next operation, the way a process holding
// the fd would simply not exist after the machine restarts.
class SimWritableFile final : public WritableFile {
 public:
  SimWritableFile(CrashSimEnv* env, CrashSimEnv::InodeRef inode,
                  std::string path, uint64_t generation)
      : env_(env),
        inode_(std::move(inode)),
        path_(std::move(path)),
        generation_(generation) {}

  // Destruction closes without syncing and charges no operation (unwinding
  // paths must not consume scheduled failures).
  ~SimWritableFile() override = default;

  Status Append(std::string_view data) override {
    MutexLock lock(&env_->mu_);
    XVR_RETURN_IF_ERROR(
        env_->CheckOp("sim.append", path_, /*mutating=*/true, inode_.get(),
                      data));
    XVR_RETURN_IF_ERROR(CheckLive());
    inode_->data.append(data.data(), data.size());
    return Status::Ok();
  }

  Status Sync() override {
    MutexLock lock(&env_->mu_);
    XVR_RETURN_IF_ERROR(env_->CheckOp("sim.sync", path_, /*mutating=*/true));
    XVR_RETURN_IF_ERROR(CheckLive());
    inode_->durable = inode_->data;
    return Status::Ok();
  }

  Status TruncateTo(uint64_t size) override {
    MutexLock lock(&env_->mu_);
    XVR_RETURN_IF_ERROR(
        env_->CheckOp("sim.truncate", path_, /*mutating=*/true));
    XVR_RETURN_IF_ERROR(CheckLive());
    inode_->data.resize(size, '\0');  // ftruncate extends with zeros
    return Status::Ok();
  }

  Status Close() override {
    MutexLock lock(&env_->mu_);
    if (closed_) {
      return Status::Ok();
    }
    closed_ = true;
    XVR_RETURN_IF_ERROR(env_->CheckOp("sim.close", path_, /*mutating=*/false));
    return Status::Ok();
  }

 private:
  Status CheckLive() XVR_REQUIRES(env_->mu_) {
    if (closed_) {
      return Status::IoError("sim.file " + path_ + ": closed");
    }
    if (generation_ != env_->generation_) {
      return Status::IoError("sim.file " + path_ +
                             ": stale handle after power cut");
    }
    return Status::Ok();
  }

  CrashSimEnv* env_;
  CrashSimEnv::InodeRef inode_;
  std::string path_;
  uint64_t generation_;
  bool closed_ = false;
};

Status CrashSimEnv::FailStatus(const char* op, const std::string& path,
                               FailMode mode) {
  switch (mode) {
    case FailMode::kPowerCut:
      return Status::IoError(std::string(op) + " " + path +
                             ": simulated power cut");
    case FailMode::kEio:
      return IoErrorFromErrno(op, path, EIO);
    case FailMode::kEnospc:
      return IoErrorFromErrno(op, path, ENOSPC);
  }
  return Status::Internal("unreachable");
}

Status CrashSimEnv::CheckOp(const char* op, const std::string& path,
                            bool mutating, Inode* tear_inode,
                            std::string_view tear_data) {
  const uint64_t cur = op_count_++;
  if (powered_off_) {
    return Status::IoError(std::string(op) + " " + path +
                           ": simulated machine is powered off");
  }
  if (failure_armed_ && cur >= fail_at_op_) {
    failure_armed_ = false;
    const FailMode mode = fail_mode_;
    if (mode == FailMode::kPowerCut) {
      CutPowerLocked();
      powered_off_ = true;
    } else {
      if (sticky_) {
        sticky_active_ = true;
      }
      // A torn append: half the bytes reached the file before the error.
      if (tear_inode != nullptr && mode == FailMode::kEio &&
          !tear_data.empty()) {
        tear_inode->data.append(tear_data.data(), tear_data.size() / 2);
      }
    }
    return FailStatus(op, path, mode);
  }
  if (sticky_active_ && mutating) {
    return FailStatus(op, path, fail_mode_);
  }
  return Status::Ok();
}

void CrashSimEnv::CutPowerLocked() {
  // Rebuild the live world from what actually reached "disk". The
  // namespace source is the durable map (strict POSIX: un-fsync'd dentry
  // ops vanish) unless the eager-metadata-journal model is on, in which
  // case live namespace entries survive but their un-synced data does not
  // (the ext4 rename-before-data hazard).
  const std::map<std::string, InodeRef>& ns =
      persist_unsynced_namespace_ ? live_ : durable_;
  std::map<std::string, InodeRef> after;
  for (const auto& [path, inode] : ns) {
    const std::string& durable = inode->durable;
    const std::string& data = inode->data;
    std::string surviving;
    const bool extends =
        data.size() >= durable.size() &&
        data.compare(0, durable.size(), durable) == 0;
    if (extends) {
      std::string suffix = data.substr(durable.size());
      switch (torn_tail_) {
        case TornTail::kDropAll:
          surviving = durable;
          break;
        case TornTail::kKeepAll:
          surviving = durable + suffix;
          break;
        case TornTail::kKeepHalf:
          surviving = durable + suffix.substr(0, suffix.size() / 2);
          break;
        case TornTail::kCorruptLastByte:
          if (!suffix.empty()) {
            suffix.back() = static_cast<char>(suffix.back() ^ 0xFF);
          }
          surviving = durable + suffix;
          break;
      }
    } else {
      // The live bytes diverged from the durable prefix (an un-synced
      // O_TRUNC reopen). The disk holds the durable image — except under
      // kKeepAll, where every volatile change happened to land.
      surviving = torn_tail_ == TornTail::kKeepAll ? data : durable;
    }
    auto fresh = std::make_shared<Inode>();
    fresh->data = surviving;
    fresh->durable = std::move(surviving);
    after.emplace(path, std::move(fresh));
  }
  live_ = after;
  durable_ = std::move(after);
  ++generation_;
}

Result<std::unique_ptr<WritableFile>> CrashSimEnv::NewWritableFile(
    const std::string& path, WriteMode mode) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(CheckOp("sim.open", path, /*mutating=*/true));
  InodeRef inode;
  auto it = live_.find(path);
  if (it != live_.end()) {
    inode = it->second;
    if (mode == WriteMode::kTruncate) {
      // O_TRUNC clears the live bytes; the durable bytes stay until the
      // truncation itself is synced.
      inode->data.clear();
    }
  } else {
    // Creation is a namespace op: durable only after SyncDir on the parent.
    inode = std::make_shared<Inode>();
    live_.emplace(path, inode);
  }
  return std::unique_ptr<WritableFile>(
      new SimWritableFile(this, std::move(inode), path, generation_));
}

Result<std::string> CrashSimEnv::ReadFile(const std::string& path) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(CheckOp("sim.read", path, /*mutating=*/false));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound("sim.read " + path + ": no such file");
  }
  return it->second->data;
}

Status CrashSimEnv::RenameFile(const std::string& from,
                               const std::string& to) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(
      CheckOp("sim.rename", from + " -> " + to, /*mutating=*/true));
  auto it = live_.find(from);
  if (it == live_.end()) {
    return Status::IoError("sim.rename " + from + ": no such file");
  }
  live_[to] = it->second;
  live_.erase(it);
  return Status::Ok();
}

Status CrashSimEnv::RemoveFile(const std::string& path) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(CheckOp("sim.remove", path, /*mutating=*/true));
  auto it = live_.find(path);
  if (it == live_.end()) {
    return Status::NotFound("sim.remove " + path + ": no such file");
  }
  live_.erase(it);
  return Status::Ok();
}

Status CrashSimEnv::SyncDir(const std::string& dir) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(CheckOp("sim.sync_dir", dir, /*mutating=*/true));
  // Promote this directory's live entries to the durable namespace and
  // drop durable entries that were removed/renamed away. Data durability
  // is per-inode (WritableFile::Sync), not affected here.
  for (auto it = durable_.begin(); it != durable_.end();) {
    if (DirOf(it->first) == dir && live_.find(it->first) == live_.end()) {
      it = durable_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& entry : live_) {
    if (DirOf(entry.first) == dir) {
      durable_[entry.first] = entry.second;
    }
  }
  return Status::Ok();
}

bool CrashSimEnv::FileExists(const std::string& path) {
  MutexLock lock(&mu_);
  // Existence checks cannot report failure; a scheduled power cut at this
  // index still takes effect, other scheduled errors are consumed.
  const Status st = CheckOp("sim.exists", path, /*mutating=*/false);
  (void)st;  // lint:discard-ok existence probes have no error channel
  if (powered_off_) {
    return false;
  }
  return live_.find(path) != live_.end();
}

Result<std::vector<std::string>> CrashSimEnv::ListDir(const std::string& dir) {
  MutexLock lock(&mu_);
  XVR_RETURN_IF_ERROR(CheckOp("sim.list", dir, /*mutating=*/false));
  // Directories are implicit in the simulator: listing a dir with no
  // entries returns an empty vector rather than NOT_FOUND.
  std::vector<std::string> names;
  for (const auto& entry : live_) {
    if (DirOf(entry.first) == dir) {
      names.push_back(BaseNameOf(entry.first));
    }
  }
  return names;  // std::map iteration order is already sorted
}

void CrashSimEnv::ScheduleFailure(uint64_t at_op, FailMode mode, bool sticky) {
  MutexLock lock(&mu_);
  failure_armed_ = true;
  fail_at_op_ = op_count_ + at_op;
  fail_mode_ = mode;
  sticky_ = sticky;
  sticky_active_ = false;
}

void CrashSimEnv::ClearFailure() {
  MutexLock lock(&mu_);
  failure_armed_ = false;
  sticky_active_ = false;
}

void CrashSimEnv::CutPower() {
  MutexLock lock(&mu_);
  CutPowerLocked();
  powered_off_ = true;
}

void CrashSimEnv::Reboot() {
  MutexLock lock(&mu_);
  powered_off_ = false;
  failure_armed_ = false;
  sticky_active_ = false;
}

void CrashSimEnv::SetTornTail(TornTail policy) {
  MutexLock lock(&mu_);
  torn_tail_ = policy;
}

void CrashSimEnv::set_persist_unsynced_namespace(bool v) {
  MutexLock lock(&mu_);
  persist_unsynced_namespace_ = v;
}

uint64_t CrashSimEnv::op_count() const {
  MutexLock lock(&mu_);
  return op_count_;
}

std::vector<std::string> CrashSimEnv::LiveFiles() const {
  MutexLock lock(&mu_);
  std::vector<std::string> paths;
  for (const auto& entry : live_) {
    paths.push_back(entry.first);
  }
  return paths;
}

}  // namespace xvr
