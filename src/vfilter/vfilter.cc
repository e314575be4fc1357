#include "vfilter/vfilter.h"

#include <algorithm>

#include "common/logging.h"

namespace xvr {

void AppendStructuralReads(const PathPattern& path,
                           std::vector<std::vector<int32_t>>* out) {
  ForEachPathForm(path, [out](const PathPattern& form) {
    out->emplace_back();
    PathToTokens(form, &out->back());
  });
}

void VFilter::AddView(int32_t view_id, const TreePattern& view) {
  XVR_CHECK(view_id >= 0);
  XVR_CHECK(SlotOf(view_id) < 0) << "view " << view_id << " already indexed";
  Decomposition d = Decompose(view);
  int32_t slot = static_cast<int32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[static_cast<size_t>(slot)] =
      ViewSlot{view_id, static_cast<int32_t>(d.paths.size())};
  for (size_t i = 0; i < d.paths.size(); ++i) {
    // Every form shares the path id, so coverage accounting is unaffected.
    ForEachPathForm(d.paths[i], [&](const PathPattern& form) {
      nfa_.Insert(form, view_id, static_cast<int32_t>(i), slot);
    });
  }
}

void VFilter::RemoveView(int32_t view_id) {
  const int32_t slot = SlotOf(view_id);
  if (slot < 0) {
    return;
  }
  slots_[static_cast<size_t>(slot)] = ViewSlot{};
  free_slots_.push_back(slot);
  nfa_.RemoveView(view_id);
}

int32_t VFilter::SlotOf(int32_t view_id) const {
  if (view_id < 0) {
    return -1;  // freed slots hold -1
  }
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].view_id == view_id) {
      return static_cast<int32_t>(slot);
    }
  }
  return -1;
}

int32_t VFilter::NumPathsOf(int32_t view_id) const {
  const int32_t slot = SlotOf(view_id);
  return slot < 0 ? -1 : slots_[static_cast<size_t>(slot)].num_paths;
}

std::vector<std::pair<int32_t, int32_t>> VFilter::ViewPathCounts() const {
  std::vector<std::pair<int32_t, int32_t>> counts;
  counts.reserve(num_views());
  for (const ViewSlot& entry : slots_) {
    if (entry.view_id >= 0) {
      counts.emplace_back(entry.view_id, entry.num_paths);
    }
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

FilterResult VFilter::Filter(const TreePattern& query,
                             NfaReadScratch* scratch) const {
  Result<FilterResult> result = Filter(query, scratch, QueryLimits());
  XVR_CHECK(result.ok());  // default limits can never fail
  return std::move(result).value();
}

Result<FilterResult> VFilter::Filter(const TreePattern& query,
                                     NfaReadScratch* scratch,
                                     const QueryLimits& limits) const {
  FilterResult result;
  result.decomposition = Decompose(query);
  const size_t num_query_paths = result.decomposition.paths.size();
  result.lists.resize(num_query_paths);

  // Per view, indexed by slot: which of its path patterns accepted at least
  // one query path (a bitmask; views rarely have more than a handful of
  // paths) and its entry in the current LIST(P_i). The call takes one stamp
  // and each query path another, so records of earlier calls (of any
  // filter) are stale without clearing. Restart the stamps, clearing the
  // records, before they could wrap.
  std::vector<NfaReadScratch::SlotRecord>& records = scratch->slot_records;
  if (scratch->filter_stamp >= UINT32_MAX - num_query_paths - 1) {
    records.assign(records.size(), NfaReadScratch::SlotRecord{});
    scratch->filter_stamp = 0;
  }
  if (records.size() < slots_.size()) {
    records.resize(slots_.size());
  }
  const uint32_t call = ++scratch->filter_stamp;
  std::vector<int32_t>& touched = scratch->touched_slots;
  touched.clear();

  for (size_t i = 0; i < num_query_paths; ++i) {
    // One NFA read is bounded work; checking between paths keeps the worst
    // overrun to a single path read.
    XVR_RETURN_IF_ERROR(CheckInterrupted(limits, "vfilter.filter"));
    // Read every form of the query path (ForEachPathForm). Each read is
    // sound, and their union removes the false negatives either form alone
    // would have.
    std::vector<std::vector<int32_t>>& reads = scratch->read_tokens;
    size_t num_reads = 0;
    ForEachPathForm(result.decomposition.paths[i],
                    [&](const PathPattern& form) {
                      if (reads.size() == num_reads) {
                        reads.emplace_back();
                      }
                      PathToTokens(form, &reads[num_reads]);
                      ++num_reads;
                    });
    // LIST(P_i) holds slots until the candidates are known.
    std::vector<ViewLengthEntry>& list = result.lists[i];
    const uint32_t path = ++scratch->filter_stamp;
    for (size_t ri = 0; ri < num_reads; ++ri) {
      nfa_.Read(reads[ri], &scratch->hits, scratch);
      for (const AcceptEntry* e : scratch->hits) {
        NfaReadScratch::SlotRecord& r = records[static_cast<size_t>(e->slot)];
        if (r.call != call) {
          r.call = call;
          r.mask = 0;
          touched.push_back(e->slot);
        }
        if (r.path != path) {
          r.path = path;
          r.list_pos = static_cast<int32_t>(list.size());
          list.push_back(ViewLengthEntry{e->slot, e->length});
        } else {
          int32_t& length = list[static_cast<size_t>(r.list_pos)].length;
          length = std::max(length, e->length);
        }
        if (e->path_id < 64) {
          r.mask |= uint64_t{1} << e->path_id;
        }
      }
    }
  }

  // A view is a candidate iff every path of D(V) accepted some query path
  // (paths past the 64th have no mask bit and are not checked: a false
  // positive at worst). Only touched slots can qualify, which keeps Filter
  // sub-linear in |V|.
  const auto view_of = [&](int32_t slot) {
    return slots_[static_cast<size_t>(slot)].view_id;
  };
  const auto is_candidate = [&](int32_t slot) {
    const int32_t num_paths = slots_[static_cast<size_t>(slot)].num_paths;
    const uint64_t want = (num_paths >= 64)
                              ? ~uint64_t{0}
                              : ((uint64_t{1} << num_paths) - 1);
    return (records[static_cast<size_t>(slot)].mask & want) == want;
  };
  for (const int32_t slot : touched) {
    if (is_candidate(slot)) {
      result.candidates.push_back(view_of(slot));
    }
  }
  std::sort(result.candidates.begin(), result.candidates.end());
  if (limits.max_candidates > 0 &&
      result.candidates.size() > limits.max_candidates) {
    return Status::ResourceExhausted(
        "candidate set has " + std::to_string(result.candidates.size()) +
        " views, over the budget of " +
        std::to_string(limits.max_candidates));
  }

  // Finish LIST(P_i): keep candidates, map slots back to view ids, sort by
  // length descending (ties by view id for determinism).
  for (std::vector<ViewLengthEntry>& list : result.lists) {
    size_t kept = 0;
    for (const ViewLengthEntry& entry : list) {
      if (is_candidate(entry.view_id)) {
        list[kept++] = ViewLengthEntry{view_of(entry.view_id), entry.length};
      }
    }
    list.resize(kept);
    std::sort(list.begin(), list.end(),
              [](const ViewLengthEntry& a, const ViewLengthEntry& b) {
                if (a.length != b.length) return a.length > b.length;
                return a.view_id < b.view_id;
              });
  }
  return result;
}

}  // namespace xvr
