#include "storage/fragment_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace xvr {
namespace {

std::string ViewPrefix(int32_t view_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "frag/%010d/", view_id);
  return buf;
}

std::string FragmentKey(int32_t view_id, size_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "frag/%010d/%08zu", view_id, seq);
  return buf;
}

void SortByRoot(std::vector<Fragment>* fragments) {
  std::sort(fragments->begin(), fragments->end(),
            [](const Fragment& a, const Fragment& b) {
              return a.root_code() < b.root_code();
            });
}

}  // namespace

// The special members never hold two byte_size_mu_ instances at once: the
// memo is read out under the source's lock, then installed under the
// destination's. Nesting them (in any fixed order between two specific
// objects) would put cycles into the process-wide lock-order graph as soon
// as snapshots are cloned and moved in both directions.

FragmentStore::FragmentStore(const FragmentStore& other)
    : views_(other.views_) {
  std::unordered_map<int32_t, size_t> memo;
  {
    MutexLock lock_other(&other.byte_size_mu_);
    memo = other.byte_size_memo_;
  }
  MutexLock lock_this(&byte_size_mu_);
  byte_size_memo_ = std::move(memo);
}

FragmentStore& FragmentStore::operator=(const FragmentStore& other) {
  if (this != &other) {
    views_ = other.views_;
    std::unordered_map<int32_t, size_t> memo;
    {
      MutexLock lock_other(&other.byte_size_mu_);
      memo = other.byte_size_memo_;
    }
    MutexLock lock_this(&byte_size_mu_);
    byte_size_memo_ = std::move(memo);
  }
  return *this;
}

FragmentStore::FragmentStore(FragmentStore&& other) noexcept
    : views_(std::move(other.views_)) {
  std::unordered_map<int32_t, size_t> memo;
  {
    MutexLock lock_other(&other.byte_size_mu_);
    memo = std::move(other.byte_size_memo_);
    other.byte_size_memo_.clear();
  }
  MutexLock lock_this(&byte_size_mu_);
  byte_size_memo_ = std::move(memo);
}

FragmentStore& FragmentStore::operator=(FragmentStore&& other) noexcept {
  if (this != &other) {
    views_ = std::move(other.views_);
    std::unordered_map<int32_t, size_t> memo;
    {
      MutexLock lock_other(&other.byte_size_mu_);
      memo = std::move(other.byte_size_memo_);
      other.byte_size_memo_.clear();
    }
    MutexLock lock_this(&byte_size_mu_);
    byte_size_memo_ = std::move(memo);
  }
  return *this;
}

void FragmentStore::PutView(int32_t view_id,
                            std::vector<Fragment> fragments) {
  SortByRoot(&fragments);
  views_[view_id] =
      std::make_shared<const std::vector<Fragment>>(std::move(fragments));
  MutexLock lock(&byte_size_mu_);
  byte_size_memo_.erase(view_id);
}

const std::vector<Fragment>* FragmentStore::GetView(int32_t view_id) const {
  auto it = views_.find(view_id);
  return it == views_.end() ? nullptr : it->second.get();
}

bool FragmentStore::HasView(int32_t view_id) const {
  return views_.find(view_id) != views_.end();
}

void FragmentStore::RemoveView(int32_t view_id) {
  views_.erase(view_id);
  MutexLock lock(&byte_size_mu_);
  byte_size_memo_.erase(view_id);
}

size_t FragmentStore::ViewByteSize(int32_t view_id) const {
  {
    MutexLock lock(&byte_size_mu_);
    auto it = byte_size_memo_.find(view_id);
    if (it != byte_size_memo_.end()) {
      return it->second;
    }
  }
  // Computed outside the lock: views_ is immutable once the store is
  // published in a snapshot, and a racing duplicate computation just
  // inserts the same value twice.
  const std::vector<Fragment>* fragments = GetView(view_id);
  if (fragments == nullptr) {
    return 0;
  }
  size_t bytes = 0;
  for (const Fragment& f : *fragments) {
    bytes += f.ByteSize();
  }
  MutexLock lock(&byte_size_mu_);
  byte_size_memo_[view_id] = bytes;
  return bytes;
}

std::vector<int32_t> FragmentStore::view_ids() const {
  std::vector<int32_t> ids;
  ids.reserve(views_.size());
  for (const auto& [view_id, fragments] : views_) {
    (void)fragments;
    ids.push_back(view_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t FragmentStore::TotalByteSize() const {
  size_t bytes = 0;
  for (const auto& [view_id, fragments] : views_) {
    (void)fragments;
    bytes += ViewByteSize(view_id);
  }
  return bytes;
}

Status FragmentStore::SaveTo(KvStore* kv) const {
  // Sorted view order: the KvStore orders keys anyway, but inserting
  // deterministically keeps the save path reproducible across platforms.
  for (const int32_t view_id : view_ids()) {
    const std::vector<Fragment>& fragments = *views_.at(view_id);
    kv->DeletePrefix(ViewPrefix(view_id));
    for (size_t i = 0; i < fragments.size(); ++i) {
      kv->Put(FragmentKey(view_id, i), fragments[i].Serialize());
    }
  }
  return Status::Ok();
}

Status FragmentStore::LoadFrom(const KvStore& kv) {
  return LoadFromImpl(kv, /*quarantined=*/nullptr);
}

Status FragmentStore::LoadFrom(const KvStore& kv,
                               std::vector<int32_t>* quarantined) {
  XVR_CHECK(quarantined != nullptr);
  quarantined->clear();
  return LoadFromImpl(kv, quarantined);
}

Status FragmentStore::LoadFromImpl(const KvStore& kv,
                                   std::vector<int32_t>* quarantined) {
  views_.clear();
  {
    MutexLock lock(&byte_size_mu_);
    byte_size_memo_.clear();
  }
  // Accumulated per view, then installed as shared immutable vectors.
  std::unordered_map<int32_t, std::vector<Fragment>> loading;
  // Views already seen to be corrupt; later fragments of the same view are
  // skipped without re-reporting.
  std::unordered_set<int32_t> bad_views;
  Status status = Status::Ok();
  kv.ScanPrefix("frag/", [&](const std::string& key,
                             const std::string& value) {
    // key = frag/<view>/<seq>
    const std::vector<std::string> parts = Split(key, '/');
    if (parts.size() != 3) {
      if (quarantined != nullptr) {
        // Garbage we cannot attribute to a view: skip it and keep loading.
        XVR_LOG(WARNING) << "skipping malformed fragment key " << key;
        return true;
      }
      status = Status::ParseError("malformed fragment key " + key);
      return false;
    }
    const int32_t view_id = static_cast<int32_t>(std::atoi(parts[1].c_str()));
    if (bad_views.count(view_id) != 0) {
      return true;
    }
    Result<Fragment> fragment = Fragment::Deserialize(value);
    XVR_FAULT_POINT(
        "fragment_store.load",
        fragment = Status::ParseError("injected: fragment_store.load"));
    if (!fragment.ok()) {
      if (quarantined != nullptr) {
        // Quarantine: drop everything from this view and keep loading the
        // rest of the store.
        XVR_LOG(WARNING) << "quarantining view " << view_id
                         << ": corrupt fragment " << key << " ("
                         << fragment.status().message() << ")";
        bad_views.insert(view_id);
        quarantined->push_back(view_id);
        loading.erase(view_id);
        return true;
      }
      status = fragment.status();
      return false;
    }
    loading[view_id].push_back(std::move(fragment).value());
    return true;
  });
  if (quarantined != nullptr) {
    std::sort(quarantined->begin(), quarantined->end());
  }
  // Keys scan in order, so per-view fragments are already Dewey-sorted only
  // if sequence order matched; re-sort to be safe. Per-view work, order of
  // iteration does not reach the output.  // lint:ordered-ok
  for (auto& [view_id, fragments] : loading) {
    SortByRoot(&fragments);
    views_[view_id] =
        std::make_shared<const std::vector<Fragment>>(std::move(fragments));
  }
  return status;
}

}  // namespace xvr
