#ifndef XVR_STORAGE_FRAGMENT_STORE_H_
#define XVR_STORAGE_FRAGMENT_STORE_H_

// Holds the materialized fragments of every view, ordered by the Dewey code
// of the fragment root (document order), and offers persistence through the
// KvStore substrate.
//
// Thread-safety: a FragmentStore embedded in a published CatalogSnapshot is
// immutable — mutations (PutView/RemoveView/LoadFrom) only ever run on the
// writer's private successor copy, never on a store readers can see
// (src/core/catalog.h). Copies are cheap: the per-view fragment vectors are
// immutable once installed and shared between copies, so a snapshot copy is
// O(#views) shared_ptr bookkeeping, not a fragment deep copy. The only
// state mutated through a const store is the per-view byte-size memo
// (ViewByteSize is called during planning by the HB strategy), which is
// internally synchronized and annotated for the thread-safety analysis.

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/fragment.h"
#include "storage/kv_store.h"

namespace xvr {

class FragmentStore {
 public:
  FragmentStore() = default;

  // Copyable: fragment vectors are shared (immutable once installed), the
  // byte-size memo is copied under the source's lock. This is what makes
  // copy-on-write catalog snapshots affordable.
  FragmentStore(const FragmentStore& other);
  FragmentStore& operator=(const FragmentStore& other);
  FragmentStore(FragmentStore&& other) noexcept;
  FragmentStore& operator=(FragmentStore&& other) noexcept;

  // Installs the fragments of `view_id` (replacing any previous ones).
  // Fragments are sorted by root code internally. Stores sharing a fragment
  // vector with this one are unaffected (the old vector stays alive for
  // them).
  void PutView(int32_t view_id, std::vector<Fragment> fragments);

  // nullptr when the view is not materialized. The pointee is immutable and
  // lives as long as any store sharing it — for snapshot readers, at least
  // as long as the pinned snapshot.
  const std::vector<Fragment>* GetView(int32_t view_id) const;

  bool HasView(int32_t view_id) const;
  void RemoveView(int32_t view_id);

  // Serialized byte size of one view's fragments (the 128 KB cap metric and
  // the HB planning order). Memoized: computed once per view, invalidated
  // when the view's fragments change. Safe to call from concurrent readers.
  size_t ViewByteSize(int32_t view_id) const XVR_EXCLUDES(byte_size_mu_);

  size_t num_views() const { return views_.size(); }
  size_t TotalByteSize() const;

  // Ids of all materialized views, sorted ascending (deterministic
  // iteration for persistence and validation).
  std::vector<int32_t> view_ids() const;

  // Persistence: keys are "frag/<view_id>/<seq>"; the image round-trips.
  Status SaveTo(KvStore* kv) const;
  Status LoadFrom(const KvStore& kv);

  // Fault-tolerant load: a view with any corrupt fragment is *quarantined*
  // — none of its fragments are installed, its id is appended to
  // `quarantined` (sorted, deduplicated), and loading continues with the
  // remaining views instead of failing the whole store. Unattributable
  // garbage under the "frag/" prefix (malformed keys) is skipped the same
  // way. `quarantined` must be non-null.
  Status LoadFrom(const KvStore& kv, std::vector<int32_t>* quarantined);

 private:
  using FragmentsRef = std::shared_ptr<const std::vector<Fragment>>;

  Status LoadFromImpl(const KvStore& kv, std::vector<int32_t>* quarantined);

  std::unordered_map<int32_t, FragmentsRef> views_;
  // view_id -> serialized size of its fragments, filled on first use.
  mutable Mutex byte_size_mu_;
  mutable std::unordered_map<int32_t, size_t> byte_size_memo_
      XVR_GUARDED_BY(byte_size_mu_);
};

}  // namespace xvr

#endif  // XVR_STORAGE_FRAGMENT_STORE_H_
