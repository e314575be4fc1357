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
  // Quarantined views must never reach selection: they resolve to nullptr,
  // which every selector skips. Every other view has fragments
  // (ValidateCatalogSnapshot checks it on each publication), so a plan only
  // selects views this snapshot can execute against.
  return [this](int32_t id) -> const TreePattern* {
    if (quarantined_views.count(id) > 0) {
      return nullptr;
    }
    return view(id);
  };
}

}  // namespace xvr
