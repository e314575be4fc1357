#include "selection/minimum_selector.h"

#include <algorithm>

#include "common/logging.h"

namespace xvr {

Result<SelectionResult> SelectMinimum(
    const TreePattern& query, const std::vector<int32_t>& candidate_ids,
    const ViewLookup& lookup, const QueryLimits& limits) {
  LeafUniverse universe(query);
  // The DP tables are O(2^|LF|); 20 bits (~1M states) is far beyond any
  // realistic query while keeping the tables at a few MB. Larger universes
  // are a budget failure the planner degrades to the greedy heuristic, not
  // a crash.
  if (universe.leaves.size() + 1 > 20) {
    return Status::ResourceExhausted(
        "query leaf universe of " +
        std::to_string(universe.leaves.size() + 1) +
        " bits is too large for exact set cover (max 20)");
  }

  SelectionResult result;
  struct Entry {
    int32_t view_id;
    LeafCover cover;
    uint64_t mask;
  };
  // Covers are the expensive homomorphism step; check every few candidates.
  InterruptTicker cover_ticker(limits, /*stride=*/16);
  std::vector<Entry> entries;
  for (int32_t id : candidate_ids) {
    XVR_RETURN_IF_ERROR(cover_ticker.Tick("selection.covers"));
    const TreePattern* view = lookup(id);
    if (view == nullptr) {
      continue;
    }
    std::optional<LeafCover> cover = ComputeLeafCover(*view, query);
    ++result.covers_computed;
    if (!cover.has_value()) {
      continue;
    }
    const uint64_t mask = universe.MaskOf(*cover);
    if (mask == 0) {
      continue;
    }
    entries.push_back(Entry{id, std::move(*cover), mask});
  }

  // Exact minimum set cover over the LF(Q) bitmask universe.
  const size_t full = universe.full_mask;
  constexpr int kInf = 1 << 29;
  std::vector<int> best(full + 1, kInf);
  std::vector<int32_t> via_entry(full + 1, -1);
  std::vector<uint64_t> via_prev(full + 1, 0);
  best[0] = 0;
  InterruptTicker dp_ticker(limits, /*stride=*/4096);
  for (uint64_t mask = 0; mask <= full; ++mask) {
    XVR_RETURN_IF_ERROR(dp_ticker.Tick("selection.set_cover_dp"));
    if (best[mask] == kInf) {
      continue;
    }
    for (size_t e = 0; e < entries.size(); ++e) {
      const uint64_t next = (mask | entries[e].mask) & full;
      if (next == mask) {
        continue;
      }
      if (best[mask] + 1 < best[next]) {
        best[next] = best[mask] + 1;
        via_entry[next] = static_cast<int32_t>(e);
        via_prev[next] = mask;
      }
    }
  }
  if (best[full] == kInf) {
    return Status::NotAnswerable(
        "no view subset covers all query leaves and the answer node");
  }
  // Reconstruct.
  for (uint64_t mask = full; mask != 0; mask = via_prev[mask]) {
    const Entry& entry = entries[static_cast<size_t>(via_entry[mask])];
    result.views.push_back(SelectedView{entry.view_id, entry.cover});
  }
  std::reverse(result.views.begin(), result.views.end());
  XVR_CHECK(CoversQuery(universe, result.views));
  return result;
}

}  // namespace xvr
