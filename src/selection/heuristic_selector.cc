#include "selection/heuristic_selector.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace xvr {

Result<SelectionResult> SelectHeuristic(const TreePattern& query,
                                        const FilterResult& filtered,
                                        const ViewLookup& lookup,
                                        const HeuristicOptions& options) {
  // Candidate order per list: Algorithm 2's longest-path-first, or the
  // smallest-fragments-first cost-model variant.
  const auto ordered_list =
      [&](const std::vector<ViewLengthEntry>& list) {
        std::vector<ViewLengthEntry> out = list;
        if (options.order == HeuristicOptions::Order::kFragmentBytes &&
            options.view_bytes) {
          std::stable_sort(out.begin(), out.end(),
                           [&](const ViewLengthEntry& a,
                               const ViewLengthEntry& b) {
                             return options.view_bytes(a.view_id) <
                                    options.view_bytes(b.view_id);
                           });
        }
        return out;
      };
  LeafUniverse universe(query);
  SelectionResult result;

  // Lazily computed covers, keyed by view id.
  std::unordered_map<int32_t, std::optional<LeafCover>> cover_cache;
  const auto cover_of = [&](int32_t view_id) -> const std::optional<LeafCover>& {
    auto it = cover_cache.find(view_id);
    if (it == cover_cache.end()) {
      const TreePattern* view = lookup(view_id);
      std::optional<LeafCover> cover;
      if (view != nullptr) {
        cover = ComputeLeafCover(*view, query);
        ++result.covers_computed;
      }
      it = cover_cache.emplace(view_id, std::move(cover)).first;
    }
    return it->second;
  };

  uint64_t uncovered = universe.full_mask;
  std::unordered_set<int32_t> selected_ids;

  // Each candidate probe may compute a cover (a homomorphism search);
  // check the deadline every few probes.
  InterruptTicker ticker(options.limits, /*stride=*/16);
  const uint64_t leaf_bits = universe.answer_bit() - 1;
  while ((uncovered & leaf_bits) != 0) {
    XVR_RETURN_IF_ERROR(
        CheckInterrupted(options.limits, "selection.heuristic"));
    int pick = 0;
    while ((uncovered & (uint64_t{1} << pick)) == 0) {
      ++pick;
    }
    const TreePattern::NodeIndex leaf = universe.leaves[static_cast<size_t>(pick)];

    // The decomposition's leaves are Leaves(query) in the same order.
    int path_index = -1;
    for (size_t i = 0; i < filtered.decomposition.leaves.size(); ++i) {
      if (filtered.decomposition.leaves[i] == leaf) {
        path_index = filtered.decomposition.leaf_to_path[i];
        break;
      }
    }
    XVR_CHECK(path_index >= 0) << "leaf missing from decomposition";

    bool covered = false;
    for (const ViewLengthEntry& entry :
         ordered_list(filtered.lists[static_cast<size_t>(path_index)])) {
      XVR_RETURN_IF_ERROR(ticker.Tick("selection.heuristic"));
      if (selected_ids.count(entry.view_id) > 0) {
        continue;  // already selected; its cover is already applied
      }
      const std::optional<LeafCover>& cover = cover_of(entry.view_id);
      if (!cover.has_value()) {
        continue;  // false positive of the filter: no homomorphism
      }
      const uint64_t mask = universe.MaskOf(*cover);
      if ((mask & (uint64_t{1} << pick)) == 0) {
        continue;  // this view does not cover the picked leaf
      }
      selected_ids.insert(entry.view_id);
      result.views.push_back(SelectedView{entry.view_id, *cover});
      uncovered &= ~mask;
      covered = true;
      break;
    }
    if (!covered) {
      return Status::NotAnswerable("query leaf " + std::to_string(leaf) +
                                   " is not covered by any candidate view");
    }
  }

  // Ensure Δ is covered: scan remaining candidates by decreasing length.
  if ((uncovered & universe.answer_bit()) != 0) {
    std::vector<ViewLengthEntry> all;
    for (const auto& list : filtered.lists) {
      all.insert(all.end(), list.begin(), list.end());
    }
    std::sort(all.begin(), all.end(),
              [](const ViewLengthEntry& a, const ViewLengthEntry& b) {
                if (a.length != b.length) return a.length > b.length;
                return a.view_id < b.view_id;
              });
    all = ordered_list(all);
    bool covered = false;
    for (const ViewLengthEntry& entry : all) {
      XVR_RETURN_IF_ERROR(ticker.Tick("selection.heuristic"));
      if (selected_ids.count(entry.view_id) > 0) {
        continue;
      }
      const std::optional<LeafCover>& cover = cover_of(entry.view_id);
      if (!cover.has_value() || !cover->covers_answer) {
        continue;
      }
      selected_ids.insert(entry.view_id);
      result.views.push_back(SelectedView{entry.view_id, *cover});
      uncovered &= ~universe.MaskOf(*cover);
      covered = true;
      break;
    }
    if (!covered) {
      return Status::NotAnswerable(
          "no candidate view can supply the answer node");
    }
  }

  RemoveRedundantViews(universe, &result.views);
  XVR_CHECK(CoversQuery(universe, result.views));
  return result;
}

}  // namespace xvr
