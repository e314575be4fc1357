#include "core/catalog.h"

#include <algorithm>

namespace xvr {

std::vector<int32_t> CatalogSnapshot::view_ids() const {
  std::vector<int32_t> ids;
  ids.reserve(views.size());
  for (const auto& [id, pattern] : views) {
    (void)pattern;
    if (quarantined_views.count(id) == 0) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<int32_t> CatalogSnapshot::quarantined_view_ids() const {
  std::vector<int32_t> ids(quarantined_views.begin(), quarantined_views.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

ViewLookup CatalogSnapshot::MakeLookup() const {
  // Quarantined views must never reach selection, and neither may
  // pattern-only (unmaterialized) views: both resolve to nullptr, which
  // every selector skips. A plan can only select views whose fragments this
  // snapshot can actually execute against; pattern-only views stay visible
  // to VFILTER (the filtering experiments read candidates, not covers).
  return [this](int32_t id) -> const TreePattern* {
    if (quarantined_views.count(id) > 0 || !fragments.HasView(id)) {
      return nullptr;
    }
    return view(id);
  };
}

}  // namespace xvr
