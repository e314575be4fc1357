#include "storage/fragment_store.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
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
              return CodeLess(a.root_code(), b.root_code());
            });
}

}  // namespace

void FragmentStore::PutView(int32_t view_id,
                            std::vector<Fragment> fragments) {
  SortByRoot(&fragments);
  size_t bytes = 0;
  for (const Fragment& f : fragments) {
    bytes += f.ByteSize();
  }
  views_.Set(view_id,
             StoredView{std::make_shared<const std::vector<Fragment>>(
                            std::move(fragments)),
                        bytes});
}

const std::vector<Fragment>* FragmentStore::GetView(int32_t view_id) const {
  const StoredView* view = views_.Find(view_id);
  return view == nullptr ? nullptr : view->fragments.get();
}

bool FragmentStore::HasView(int32_t view_id) const {
  return views_.Contains(view_id);
}

void FragmentStore::RemoveView(int32_t view_id) { views_.Erase(view_id); }

size_t FragmentStore::ViewByteSize(int32_t view_id) const {
  const StoredView* view = views_.Find(view_id);
  return view == nullptr ? 0 : view->byte_size;
}

std::vector<int32_t> FragmentStore::view_ids() const {
  std::vector<int32_t> ids;
  ids.reserve(views_.size());
  for (const auto& [view_id, view] : views_) {
    (void)view;
    ids.push_back(view_id);
  }
  return ids;
}

size_t FragmentStore::TotalByteSize() const {
  size_t bytes = 0;
  for (const auto& [view_id, view] : views_) {
    (void)view_id;
    bytes += view.byte_size;
  }
  return bytes;
}

Status FragmentStore::SaveTo(KvStore* kv) const {
  // Ascending view order: the KvStore orders keys anyway, but inserting
  // deterministically keeps the save path reproducible across platforms.
  for (const auto& [view_id, view] : views_) {
    const std::vector<Fragment>& fragments = *view.fragments;
    kv->DeletePrefix(ViewPrefix(view_id));
    for (size_t i = 0; i < fragments.size(); ++i) {
      kv->Put(FragmentKey(view_id, i), fragments[i].Serialize());
    }
  }
  return Status::Ok();
}

Status FragmentStore::LoadFrom(const KvStore& kv, int32_t id_limit) {
  return LoadFromImpl(kv, id_limit, /*quarantined=*/nullptr);
}

Status FragmentStore::LoadFrom(const KvStore& kv, int32_t id_limit,
                               std::vector<int32_t>* quarantined) {
  XVR_CHECK(quarantined != nullptr);
  quarantined->clear();
  return LoadFromImpl(kv, id_limit, quarantined);
}

Status FragmentStore::LoadFromImpl(const KvStore& kv, int32_t id_limit,
                                   std::vector<int32_t>* quarantined) {
  views_ = CowTable<StoredView>();
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
    int32_t view_id = 0;
    if (parts.size() != 3 ||
        !ParseBoundedId(parts[1], int64_t{INT32_MAX} + 1, &view_id)) {
      if (quarantined != nullptr) {
        // Garbage we cannot attribute to a view: skip it and keep loading.
        XVR_LOG(WARNING) << "skipping malformed fragment key " << key;
        return true;
      }
      status = Status::ParseError("malformed fragment key " + key);
      return false;
    }
    if (view_id >= id_limit) {
      // An id the catalog never issued: the image contradicts itself, and
      // the id must not size the view table.
      status = Status::ParseError("fragment key " + key +
                                  " names a view id not below " +
                                  std::to_string(id_limit));
      return false;
    }
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
  // if sequence order matched; PutView re-sorts to be safe. Per-view work,
  // order of iteration does not reach the output.  // lint:ordered-ok
  for (auto& [view_id, fragments] : loading) {
    PutView(view_id, std::move(fragments));
  }
  return status;
}

}  // namespace xvr
