#ifndef XVR_STORAGE_FRAGMENT_STORE_H_
#define XVR_STORAGE_FRAGMENT_STORE_H_

// Holds the materialized fragments of every view, ordered by the Dewey code
// of the fragment root (document order), and offers persistence through the
// KvStore substrate.
//
// Thread-safety: a FragmentStore embedded in a published CatalogSnapshot is
// immutable — mutations (PutView/RemoveView/LoadFrom) only ever run on the
// writer's private successor copy, never on a store readers can see
// (src/core/catalog.h). Copies are cheap: the views live in a copy-on-write
// table (common/cow_table.h) whose chunks of 64 views a copy shares, and a
// view's fragment vector is immutable once installed and shared by every
// chunk that holds it. A copy costs a few dozen chunk pointers; a later
// write clones one chunk of entries, never a fragment.

#include <memory>
#include <vector>

#include "common/cow_table.h"
#include "common/status.h"
#include "storage/fragment.h"
#include "storage/kv_store.h"

namespace xvr {

class FragmentStore {
 public:
  // Installs the fragments of `view_id` (>= 0), replacing any previous
  // ones, and computes their serialized byte size once. Fragments are
  // sorted by root code internally. Stores sharing the view's old entry
  // with this one are unaffected.
  void PutView(int32_t view_id, std::vector<Fragment> fragments);

  // nullptr when the view is not materialized. The pointee is immutable and
  // lives as long as any store sharing it — for snapshot readers, at least
  // as long as the pinned snapshot.
  const std::vector<Fragment>* GetView(int32_t view_id) const;

  bool HasView(int32_t view_id) const;
  void RemoveView(int32_t view_id);

  // Serialized byte size of one view's fragments (the 128 KB cap metric and
  // the HB planning order), 0 for an unknown view. A lookup: PutView
  // computed it.
  size_t ViewByteSize(int32_t view_id) const;

  size_t num_views() const { return views_.size(); }
  size_t TotalByteSize() const;

  // Ids of all materialized views, ascending (deterministic iteration for
  // persistence and validation).
  std::vector<int32_t> view_ids() const;

  // Persistence: keys are "frag/<view_id>/<seq>"; the image round-trips.
  // A view id must lie in [0, id_limit), the ids the catalog that wrote the
  // image had issued: any other id fails the load with PARSE_ERROR, so no
  // key can size the view table past them.
  Status SaveTo(KvStore* kv) const;
  Status LoadFrom(const KvStore& kv, int32_t id_limit);

  // Fault-tolerant load: a view with any corrupt fragment is *quarantined*
  // — none of its fragments are installed, its id is appended to
  // `quarantined` (sorted, deduplicated), and loading continues with the
  // remaining views instead of failing the whole store. Unattributable
  // garbage under the "frag/" prefix (malformed keys) is skipped the same
  // way. `quarantined` must be non-null.
  Status LoadFrom(const KvStore& kv, int32_t id_limit,
                  std::vector<int32_t>* quarantined);

 private:
  struct StoredView {
    std::shared_ptr<const std::vector<Fragment>> fragments;
    size_t byte_size = 0;  // serialized size of the fragments
  };

  Status LoadFromImpl(const KvStore& kv, int32_t id_limit,
                      std::vector<int32_t>* quarantined);

  CowTable<StoredView> views_;
};

}  // namespace xvr

#endif  // XVR_STORAGE_FRAGMENT_STORE_H_
