#include "vfilter/vfilter.h"

#include <algorithm>

#include "common/logging.h"
#include "pattern/normalize.h"

namespace xvr {

VFilter::VFilter(VFilterOptions options) : options_(options) {}

namespace {
std::string PredKey(const ValuePredicate& pred) {
  return pred.attribute + "\x01" +
         std::to_string(static_cast<int>(pred.op)) + "\x01" + pred.value;
}
}  // namespace

int32_t VFilter::InternPred(const ValuePredicate& pred) {
  auto [it, inserted] =
      pred_ids_.emplace(PredKey(pred), static_cast<int32_t>(pred_ids_.size()));
  return it->second;
}

int32_t VFilter::FindPredToken(const ValuePredicate& pred) const {
  auto it = pred_ids_.find(PredKey(pred));
  // Unknown predicates get a token no view requires; it is still absorbed
  // as an invisible token by every state.
  const int32_t id =
      it == pred_ids_.end() ? static_cast<int32_t>(pred_ids_.size()) : it->second;
  return PredTokenFor(id);
}

void VFilter::TokensInto(const PathPattern& path,
                         std::vector<int32_t>* out) const {
  out->clear();
  for (const PathStep& step : path.steps()) {
    if (step.axis == Axis::kDescendant) {
      out->push_back(kHashToken);
    }
    out->push_back(step.label);
    // Pred tokens interleave after their step labels (attribute indexing).
    if (options_.index_attributes && step.pred.has_value()) {
      out->push_back(FindPredToken(*step.pred));
    }
  }
}

void VFilter::AddView(int32_t view_id, const TreePattern& view) {
  XVR_CHECK(view_id >= 0);
  XVR_CHECK(views_.find(view_id) == views_.end())
      << "view " << view_id << " already indexed";
  Decomposition d = Decompose(view);
  views_[view_id] = static_cast<int32_t>(d.paths.size());
  for (size_t i = 0; i < d.paths.size(); ++i) {
    // Index the raw form (so prefix containments that rely on the original
    // child edges keep their homomorphism) and, when normalization is on
    // and changes the path, also the normalized form (which aligns the
    // equivalence classes of Example 3.2). Both entries share the path id,
    // so coverage accounting is unaffected.
    PathNfa::PredInterner interner;
    if (options_.index_attributes) {
      interner = [this](const ValuePredicate& pred) {
        return InternPred(pred);
      };
    }
    nfa_.Insert(d.paths[i], view_id, static_cast<int32_t>(i),
                options_.share_prefixes, interner);
    if (options_.normalize) {
      const PathPattern normalized = NormalizePath(d.paths[i]);
      if (!(normalized == d.paths[i])) {
        nfa_.Insert(normalized, view_id, static_cast<int32_t>(i),
                    options_.share_prefixes, interner);
      }
    }
  }
}

void VFilter::RemoveView(int32_t view_id) {
  if (views_.erase(view_id) > 0) {
    nfa_.RemoveView(view_id);
  }
}

int32_t VFilter::NumPathsOf(int32_t view_id) const {
  auto it = views_.find(view_id);
  return it == views_.end() ? -1 : it->second;
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

  // Per view: which of its path patterns accepted at least one query path
  // (as a bitmask; views rarely have more than a handful of paths), or a
  // plain counter in the paper-literal ablation mode.
  std::unordered_map<int32_t, uint64_t> covered;
  std::unordered_map<int32_t, int32_t> counters;

  // Per query path: view -> longest accepting view-path length.
  std::vector<std::unordered_map<int32_t, int32_t>> list_maps(
      num_query_paths);

  std::vector<const AcceptEntry*> hits;
  for (size_t i = 0; i < num_query_paths; ++i) {
    // One NFA read is bounded work; checking between paths keeps the worst
    // overrun to a single path read.
    XVR_RETURN_IF_ERROR(CheckInterrupted(limits, "vfilter.filter"));
    const PathPattern& raw = result.decomposition.paths[i];
    // Read the normalized string (catches the Example 3.2 equivalences) and
    // also the raw string when it differs: a view path can match the raw
    // form by plain prefix containment that normalization obscures (the //
    // pushed in front of a wildcard breaks child-edge homomorphisms). Both
    // reads are sound; their union removes the false negatives either read
    // alone would have.
    std::vector<std::vector<int32_t>>& reads = scratch->read_tokens;
    size_t num_reads = 0;
    const auto add_read = [&](const PathPattern& p) {
      if (reads.size() == num_reads) {
        reads.emplace_back();
      }
      TokensInto(p, &reads[num_reads]);
      ++num_reads;
    };
    if (options_.normalize) {
      const PathPattern normalized = NormalizePath(raw);
      add_read(normalized);
      if (!(normalized == raw)) {
        add_read(raw);
      }
    } else {
      add_read(raw);
    }
    // Each distinct (view path, query path) acceptance counts once, even if
    // both reads hit it. The pair list is tiny (one entry per accepting
    // view path), so a linear scan beats a hash set.
    std::vector<int64_t>& pairs_hit = scratch->pairs_hit;
    pairs_hit.clear();
    for (size_t ri = 0; ri < num_reads; ++ri) {
      const std::vector<int32_t>& tokens = reads[ri];
      nfa_.Read(tokens, &hits, scratch);
      for (const AcceptEntry* e : hits) {
        auto [it, inserted] = list_maps[i].emplace(e->view_id, e->length);
        if (!inserted && e->length > it->second) {
          it->second = e->length;
        }
        const int64_t pair_key =
            (static_cast<int64_t>(e->view_id) << 20) | e->path_id;
        if (std::find(pairs_hit.begin(), pairs_hit.end(), pair_key) !=
            pairs_hit.end()) {
          continue;
        }
        pairs_hit.push_back(pair_key);
        if (options_.counter_mode) {
          ++counters[e->view_id];
        } else if (e->path_id < 64) {
          covered[e->view_id] |= uint64_t{1} << e->path_id;
        }
      }
    }
  }

  // A view is a candidate iff every path of D(V) accepted some query path.
  // Only views with at least one hit can qualify, so iterate the hit maps
  // rather than the full registry (keeps Filter sub-linear in |V|).
  if (options_.counter_mode) {
    for (const auto& [view_id, count] : counters) {
      auto it = views_.find(view_id);
      if (it != views_.end() && count == it->second) {
        result.candidates.push_back(view_id);
      }
    }
  } else {
    for (const auto& [view_id, mask] : covered) {
      auto it = views_.find(view_id);
      if (it == views_.end()) {
        continue;
      }
      const int32_t num_paths = it->second;
      const uint64_t want = (num_paths >= 64)
                                ? ~uint64_t{0}
                                : ((uint64_t{1} << num_paths) - 1);
      if ((mask & want) == want) {
        result.candidates.push_back(view_id);
      }
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

  // Build LIST(P_i): drop non-candidates, sort by length descending (ties by
  // view id for determinism).
  std::unordered_map<int32_t, bool> is_candidate;
  is_candidate.reserve(result.candidates.size() * 2);
  for (int32_t v : result.candidates) {
    is_candidate[v] = true;
  }
  for (size_t i = 0; i < num_query_paths; ++i) {
    auto& list = result.lists[i];
    for (const auto& [view_id, length] : list_maps[i]) {
      if (is_candidate.count(view_id) > 0) {
        list.push_back(ViewLengthEntry{view_id, length});
      }
    }
    std::sort(list.begin(), list.end(),
              [](const ViewLengthEntry& a, const ViewLengthEntry& b) {
                if (a.length != b.length) return a.length > b.length;
                return a.view_id < b.view_id;
              });
  }
  return result;
}

}  // namespace xvr
