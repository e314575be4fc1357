#include "core/plan_deps.h"

#include <algorithm>
#include <utility>

#include "pattern/path_pattern.h"
#include "vfilter/vfilter.h"

namespace xvr {
namespace {

uint64_t LabelBloomBit(int32_t token) {
  return uint64_t{1} << (static_cast<uint32_t>(token) % 64);
}

}  // namespace

PlanDependencies BuildPlanDependencies(const TreePattern& query,
                                       std::vector<int32_t> views,
                                       bool filtered) {
  PlanDependencies deps;
  deps.filtered = filtered;
  std::sort(views.begin(), views.end());
  views.erase(std::unique(views.begin(), views.end()), views.end());
  deps.views = std::move(views);
  const Decomposition decomposition = Decompose(query);
  deps.leaf_streams.reserve(decomposition.paths.size());
  // Mirror VFilter::Filter's read union per path, one stream per form.
  for (const PathPattern& path : decomposition.paths) {
    AppendStructuralReads(path, &deps.leaf_streams);
  }
  for (const std::vector<int32_t>& stream : deps.leaf_streams) {
    for (const int32_t token : stream) {
      if (token >= 0) {
        deps.label_mask |= LabelBloomBit(token);
      }
    }
  }
  return deps;
}

ViewPublication MakeViewPublication(int32_t view_id, const TreePattern& view) {
  ViewPublication pub;
  pub.view_id = view_id;
  const Decomposition decomposition = Decompose(view);
  pub.num_paths = static_cast<int32_t>(decomposition.paths.size());
  pub.path_label_masks.reserve(decomposition.paths.size());
  for (size_t i = 0; i < decomposition.paths.size(); ++i) {
    const PathPattern& raw = decomposition.paths[i];
    uint64_t mask = 0;
    for (const PathStep& step : raw.steps()) {
      if (step.label >= 0) {
        mask |= LabelBloomBit(step.label);
      }
    }
    pub.path_label_masks.push_back(mask);
    ForEachPathForm(raw, [&](const PathPattern& form) {
      pub.nfa.Insert(form, view_id, static_cast<int32_t>(i));
    });
  }
  return pub;
}

bool PublicationAdmits(const PlanDependencies& deps,
                       const ViewPublication& pub, NfaReadScratch* scratch) {
  if (deps.catalog_free) {
    return false;
  }
  // Level 1: a view path whose literal labels the query streams never
  // mention can accept no stream (its label transitions would starve), so
  // the view cannot be a candidate. Exact as a reject; bloom collisions
  // only fall through to the exact test below.
  for (const uint64_t mask : pub.path_label_masks) {
    if ((mask & deps.label_mask) != mask) {
      return false;
    }
  }
  // Level 2: real candidacy — every view path accepts some query stream.
  // Coverage is a bitmask like VFilter::Filter's; views with 64+ paths
  // admit conservatively.
  if (pub.num_paths >= 64) {
    return true;
  }
  const uint64_t want = (uint64_t{1} << pub.num_paths) - 1;
  uint64_t covered = 0;
  std::vector<const AcceptEntry*> hits;
  for (const std::vector<int32_t>& stream : deps.leaf_streams) {
    pub.nfa.Read(stream, &hits, scratch);
    for (const AcceptEntry* entry : hits) {
      covered |= uint64_t{1} << entry->path_id;
    }
    if ((covered & want) == want) {
      return true;
    }
  }
  return false;
}

}  // namespace xvr
