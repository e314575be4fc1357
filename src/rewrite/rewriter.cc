#include "rewrite/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "common/logging.h"
#include "rewrite/compensate.h"
#include "rewrite/prefix_join.h"
#include "rewrite/skeleton.h"

// The rewrite routes every transient through the per-query RewriteScratch:
// signatures are (root code, prefix length) references — a fragment's
// signature prefixes are always prefixes of its own root code, so no
// components are copied and no key strings are built — membership is a
// binary search over a sorted row table, and the anchored fragment walks
// reuse one epoched memo. Per-fragment work follows what changes between
// consecutive fragments of a view (stored in document order): each root
// code is decoded only past its common prefix with the previous one, and
// the anchor path is re-matched only when the decoded label path differs.

namespace xvr {
namespace {

// Cap on the path-match assignments enumerated per fragment (ambiguous //
// anchor paths).
constexpr size_t kMaxAssignmentsPerFragment = 256;

// A signature prefix as a reference: the first `len` components of a
// fragment's root code, which the fragment's block holds. Fragments are
// pinned by the catalog snapshot for the duration of the query, so the
// pointed-at components are stable.
struct PrefixRef {
  const uint32_t* code = nullptr;
  uint32_t len = 0;
};

// Lexicographic three-way compare of two prefixes (shorter-is-smaller on a
// tie, matching DeweyCode::operator<). Both refs must be bound.
int PrefixCompare(const PrefixRef& a, const PrefixRef& b) {
  const uint32_t* ap = a.code;
  const uint32_t* bp = b.code;
  const uint32_t n = a.len < b.len ? a.len : b.len;
  for (uint32_t i = 0; i < n; ++i) {
    if (ap[i] != bp[i]) {
      return ap[i] < bp[i] ? -1 : 1;
    }
  }
  if (a.len != b.len) {
    return a.len < b.len ? -1 : 1;
  }
  return 0;
}

// Three-way compare of two fixed-width signature rows.
int RowCompare(const PrefixRef* a, const PrefixRef* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    const int c = PrefixCompare(a[i], b[i]);
    if (c != 0) {
      return c;
    }
  }
  return 0;
}

struct JoinFrag {
  const Fragment* fragment = nullptr;
  // Signature row range [sig_begin, sig_end) in the owning view's store.
  uint32_t sig_begin = 0;
  uint32_t sig_end = 0;
  // Primary view only: the fragment's answer nodes, [node_begin, node_end)
  // in the query's answer-node buffer.
  uint32_t node_begin = 0;
  uint32_t node_end = 0;
};

// Arena-resident join state of one view: its shared skeleton slots, refined
// fragments and a flat store of signature rows (width = number of shared
// nodes on the view's path), plus — for the views the join probes, i.e.
// all but the primary — a sorted index over the rows for the fully-bound
// membership probe.
struct ViewJoin {
  explicit ViewJoin(Arena* arena)
      : shared_slot(ArenaAllocator<uint32_t>(arena)),
        shared_path_pos(ArenaAllocator<size_t>(arena)),
        fragments(ArenaAllocator<JoinFrag>(arena)),
        sig_store(ArenaAllocator<PrefixRef>(arena)),
        sorted_sigs(ArenaAllocator<uint32_t>(arena)) {}

  // Parallel: slot of each shared node in skeleton.shared, and its position
  // on this view's root->q* path.
  ArenaVector<uint32_t> shared_slot;
  ArenaVector<size_t> shared_path_pos;
  ArenaVector<JoinFrag> fragments;
  ArenaVector<PrefixRef> sig_store;   // num_rows rows of width() refs
  ArenaVector<uint32_t> sorted_sigs;  // row ids, lexicographic by row
  uint32_t num_rows = 0;

  size_t width() const { return shared_slot.size(); }
  const PrefixRef* Row(size_t row) const {
    return sig_store.data() + row * width();
  }
};

// Does any signature row of `v` equal `probe`? Binary search over the
// sorted row index. A zero-width view matches iff it has rows.
bool HasRow(const ViewJoin& v, const PrefixRef* probe) {
  size_t lo = 0;
  size_t hi = v.sorted_sigs.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int c = RowCompare(v.Row(v.sorted_sigs[mid]), probe, v.width());
    if (c == 0) {
      return true;
    }
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

// Can the pending views each contribute one fragment consistent with
// `binding`? A view whose shared slots are all bound resolves by one
// membership probe and binds nothing — its
// resolution is forced and order-independent, so one pass retires them all
// — then the first still-pending view branches over its fragments'
// signature rows, binding unbound slots and undoing on failure.
//
// `done` (one flag per view), `binding` (one ref per skeleton.shared slot;
// unbound = null code) and `probe` (one row of scratch, overwritten before
// every HasRow) are arena arrays owned by the caller. Recursion depth is
// bounded by the view count; the per-level undo arrays come from the arena
// and are reclaimed by the end-of-query Reset().
bool Satisfiable(const ViewJoin* const* views, size_t num_views,
                 uint8_t* done, size_t pending, PrefixRef* binding,
                 PrefixRef* probe, Arena* arena) {
  if (pending == 0) {
    return true;
  }
  uint32_t* resolved = arena->AllocateArray<uint32_t>(num_views);
  size_t num_resolved = 0;
  const auto undo_resolved = [&] {
    for (size_t r = 0; r < num_resolved; ++r) {
      done[resolved[r]] = 0;
    }
  };
  for (size_t i = 0; i < num_views; ++i) {
    if (done[i] != 0) {
      continue;
    }
    const ViewJoin& v = *views[i];
    bool fully_bound = true;
    for (size_t s = 0; s < v.width(); ++s) {
      const PrefixRef& b = binding[v.shared_slot[s]];
      if (b.code == nullptr) {
        fully_bound = false;
        break;
      }
      probe[s] = b;
    }
    if (!fully_bound) {
      continue;
    }
    if (!HasRow(v, probe)) {
      undo_resolved();
      return false;  // no fragment of this view fits the binding
    }
    done[i] = 1;
    resolved[num_resolved++] = static_cast<uint32_t>(i);
    --pending;
  }
  if (pending == 0) {
    return true;
  }

  // First pending view has unbound shared slots; branch over its rows.
  size_t pick = 0;
  while (done[pick] != 0) {
    ++pick;
  }
  const ViewJoin& v = *views[pick];
  done[pick] = 1;
  uint32_t* undo_slots = arena->AllocateArray<uint32_t>(v.width());
  for (const JoinFrag& jf : v.fragments) {
    for (uint32_t row = jf.sig_begin; row < jf.sig_end; ++row) {
      const PrefixRef* sig = v.Row(row);
      bool consistent = true;
      for (size_t s = 0; s < v.width(); ++s) {
        const PrefixRef& b = binding[v.shared_slot[s]];
        if (b.code != nullptr && PrefixCompare(b, sig[s]) != 0) {
          consistent = false;
          break;
        }
      }
      if (!consistent) {
        continue;
      }
      size_t num_undo = 0;
      for (size_t s = 0; s < v.width(); ++s) {
        const uint32_t slot = v.shared_slot[s];
        if (binding[slot].code == nullptr) {
          binding[slot] = sig[s];
          undo_slots[num_undo++] = slot;
        }
      }
      if (Satisfiable(views, num_views, done, pending - 1, binding, probe,
                      arena)) {
        return true;
      }
      for (size_t u = 0; u < num_undo; ++u) {
        binding[undo_slots[u]] = PrefixRef{};
      }
    }
  }
  done[pick] = 0;
  undo_resolved();
  return false;
}

// Refinement, join and extraction; every extracted answer's code is
// appended to `out`.
Status AnswerCore(const TreePattern& query, const SelectionResult& selection,
                  const FragmentStore& store, const Fst& fst,
                  RewriteStats* stats, const RewriteOptions& options,
                  std::vector<DeweyCode>* out) {
  RewriteStats local_stats;
  RewriteStats* st = stats != nullptr ? stats : &local_stats;
  *st = RewriteStats{};
  // Callers without an ExecutionContext (one-off rewrites) get call-local
  // scratch.
  std::optional<RewriteScratch> local_scratch;
  RewriteScratch& scratch = options.scratch != nullptr
                                ? *options.scratch
                                : local_scratch.emplace();
  scratch.Reset();
  Arena* arena = &scratch.arena;

  const int primary = selection.PrimaryIndex();
  if (primary < 0) {
    return Status::InvalidArgument(
        "selection has no view covering the answer node");
  }
  // Plan-hoisted compensating patterns; callers without a plan get
  // call-local ones, as they get call-local scratch.
  std::optional<PlanCompensation> local_compensation;
  const PlanCompensation& compensation =
      options.compensation != nullptr
          ? *options.compensation
          : local_compensation.emplace(
                BuildPlanCompensation(query, selection));
  if (compensation.views.size() != selection.views.size() ||
      !compensation.has_extraction) {
    return Status::Internal(
        "plan compensation does not match the selection: " +
        std::to_string(compensation.views.size()) + " views for " +
        std::to_string(selection.views.size()) + " selected");
  }
  const QueryLimits& limits = options.limits;
  InterruptTicker ticker(limits, /*stride=*/64);
  const Skeleton skeleton = BuildSkeleton(query, selection.views);
  const size_t num_shared = skeleton.shared.size();

  // Phase 1: per view, refine fragments and enumerate signature rows. The
  // primary view refines by its extraction walk — the fragment root embeds
  // the extraction pattern iff it embeds the refinement, the same subtree —
  // and keeps the answer nodes the walk finds for phase 3.
  const TreePattern& extraction = compensation.extraction;
  ArenaVector<int32_t> answer_nodes{ArenaAllocator<int32_t>(arena)};
  ArenaVector<ViewJoin> join_data{ArenaAllocator<ViewJoin>(arena)};
  join_data.reserve(selection.views.size());
  ScopedSpan refine_span(options.trace, "execute.refine");
  for (size_t vi = 0; vi < selection.views.size(); ++vi) {
    const SelectedView& sel = selection.views[vi];
    const std::vector<Fragment>* fragments = store.GetView(sel.view_id);
    if (fragments == nullptr) {
      return Status::NotFound("view " + std::to_string(sel.view_id) +
                              " is not materialized");
    }
    const bool is_primary = vi == static_cast<size_t>(primary);
    const TreePattern& refinement = compensation.views[vi].refinement;
    const PathPattern& anchor_path = compensation.views[vi].anchor_path;

    join_data.emplace_back(arena);
    ViewJoin& data = join_data.back();
    const std::vector<TreePattern::NodeIndex>& path = skeleton.view_paths[vi];
    for (size_t slot = 0; slot < num_shared; ++slot) {
      auto it = std::find(path.begin(), path.end(), skeleton.shared[slot]);
      if (it != path.end()) {
        data.shared_slot.push_back(static_cast<uint32_t>(slot));
        data.shared_path_pos.push_back(static_cast<size_t>(it - path.begin()));
      }
    }
    const size_t width = data.width();

    // The previous fragment; scratch.labels holds the decode of its root
    // code and scratch.matched_labels the path scratch.assignments were
    // matched on. Both restart with each view, whose anchor path is its own.
    const Fragment* prev = nullptr;
    for (const Fragment& fragment : *fragments) {
      XVR_RETURN_IF_ERROR(ticker.Tick("rewrite.refinement"));
      ++st->fragments_scanned;
      const std::span<const uint32_t> code = fragment.root_code();
      const size_t keep =
          prev == nullptr ? 0 : CommonPrefixLength(code, prev->root_code());
      if (!fst.Decode(code, &scratch.labels, keep)) {
        return Status::Internal("fragment code does not decode: " +
                                fragment.AbsoluteCode(0).ToString());
      }
      // Equal-length codes can decode to different paths: compare them all.
      if (prev == nullptr || scratch.labels != scratch.matched_labels) {
        MatchPathOnLabels(anchor_path, scratch.labels,
                          kMaxAssignmentsPerFragment, &scratch.assignments);
        scratch.matched_labels = scratch.labels;
      }
      prev = &fragment;
      if (scratch.assignments.empty()) {
        continue;  // the fragment root does not sit under Q's anchor path
      }
      JoinFrag jf;
      jf.fragment = &fragment;
      if (is_primary) {
        scratch.extract_nodes.clear();
        fragment.EvaluateAnchored(extraction, &scratch.fragment,
                                  &scratch.extract_nodes);
        if (scratch.extract_nodes.empty()) {
          continue;  // compensating predicate fails inside the fragment
        }
        jf.node_begin = static_cast<uint32_t>(answer_nodes.size());
        answer_nodes.insert(answer_nodes.end(), scratch.extract_nodes.begin(),
                            scratch.extract_nodes.end());
        jf.node_end = static_cast<uint32_t>(answer_nodes.size());
      } else if (!fragment.MatchesAnchored(refinement, &scratch.fragment)) {
        continue;  // compensating predicate fails inside the fragment
      }
      ++st->fragments_after_refinement;

      jf.sig_begin = data.num_rows;
      for (size_t ai = 0; ai < scratch.assignments.size(); ++ai) {
        const std::span<const int> a = scratch.assignments[ai];
        // Build the candidate row at the store's tail, then keep it only if
        // this fragment has not produced it already (assignments are capped,
        // so the dedup scan is bounded).
        const size_t tail = data.sig_store.size();
        for (size_t s = 0; s < width; ++s) {
          const int pos = a[data.shared_path_pos[s]];
          data.sig_store.push_back(
              PrefixRef{code.data(), static_cast<uint32_t>(pos) + 1});
        }
        bool duplicate = false;
        for (uint32_t row = jf.sig_begin; row < data.num_rows; ++row) {
          if (RowCompare(data.Row(row), data.sig_store.data() + tail, width) ==
              0) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) {
          data.sig_store.resize(tail);
        } else {
          ++data.num_rows;
        }
      }
      jf.sig_end = data.num_rows;
      data.fragments.push_back(jf);
      if (limits.max_join_fragments > 0 &&
          data.fragments.size() > limits.max_join_fragments) {
        return Status::ResourceExhausted(
            "view " + std::to_string(sel.view_id) + " feeds more than " +
            std::to_string(limits.max_join_fragments) +
            " refined fragments into the join (" +
            std::to_string(st->fragments_scanned) + " fragments scanned)");
      }
    }
    if (data.fragments.empty()) {
      return Status::Ok();  // some view has no usable fragment -> empty
    }
    if (is_primary) {
      continue;  // the join binds from the primary's rows, never probes them
    }
    // Rows are prefixes of document-ordered codes, so they usually arrive
    // sorted already.
    data.sorted_sigs.resize(data.num_rows);
    for (uint32_t r = 0; r < data.num_rows; ++r) {
      data.sorted_sigs[r] = r;
    }
    const auto row_less = [&data, width](uint32_t a, uint32_t b) {
      return RowCompare(data.Row(a), data.Row(b), width) < 0;
    };
    if (!std::is_sorted(data.sorted_sigs.begin(), data.sorted_sigs.end(),
                        row_less)) {
      std::sort(data.sorted_sigs.begin(), data.sorted_sigs.end(), row_less);
    }
  }
  refine_span.Stop();

  // Phase 2: join. join_data is fully built, so rows, fragments and the
  // ViewJoin objects themselves are stable to point at from here on.
  const ViewJoin& primary_data = join_data[static_cast<size_t>(primary)];
  ScopedSpan join_span(options.trace, "execute.join");
  ArenaVector<const ViewJoin*> others{ArenaAllocator<const ViewJoin*>(arena)};
  others.reserve(join_data.size());
  for (size_t vi = 0; vi < join_data.size(); ++vi) {
    if (vi != static_cast<size_t>(primary)) {
      others.push_back(&join_data[vi]);
    }
  }
  // Cheaper views (fewer fragments) first prunes faster.
  std::sort(others.begin(), others.end(),
            [](const ViewJoin* a, const ViewJoin* b) {
              return a->fragments.size() < b->fragments.size();
            });
  const size_t num_others = others.size();
  uint8_t* done = arena->AllocateArray<uint8_t>(num_others);
  PrefixRef* binding = arena->AllocateArray<PrefixRef>(num_shared);
  PrefixRef* probe = arena->AllocateArray<PrefixRef>(num_shared);

  ArenaVector<const JoinFrag*> survivors{
      ArenaAllocator<const JoinFrag*>(arena)};
  size_t survivor_nodes = 0;
  // One primary fragment is one Satisfiable() search. The ticker checks
  // before the first and then before every 16th, so once the deadline
  // passes at most 15 more searches run before the query stops.
  InterruptTicker join_ticker(limits, /*stride=*/16);
  for (const JoinFrag& jf : primary_data.fragments) {
    XVR_RETURN_IF_ERROR(join_ticker.Tick("rewrite.join"));
    bool supported = false;
    for (uint32_t row = jf.sig_begin; row < jf.sig_end && !supported; ++row) {
      std::fill(binding, binding + num_shared, PrefixRef{});
      std::fill(done, done + num_others, uint8_t{0});
      const PrefixRef* sig = primary_data.Row(row);
      for (size_t s = 0; s < primary_data.width(); ++s) {
        binding[primary_data.shared_slot[s]] = sig[s];
      }
      supported = Satisfiable(others.data(), num_others, done, num_others,
                              binding, probe, arena);
    }
    if (supported) {
      ++st->join_survivors;
      survivors.push_back(&jf);
      survivor_nodes += jf.node_end - jf.node_begin;
    }
  }
  join_span.Stop();

  // Phase 3: emit the answer nodes phase 1 kept for each survivor.
  ScopedSpan extract_span(options.trace, "execute.extract");
  out->reserve(out->size() + (limits.max_result_codes > 0
                                  ? std::min(survivor_nodes,
                                             limits.max_result_codes)
                                  : survivor_nodes));
  size_t emitted = 0;
  for (const JoinFrag* jf : survivors) {
    XVR_RETURN_IF_ERROR(ticker.Tick("rewrite.extract"));
    for (uint32_t n = jf->node_begin; n < jf->node_end; ++n) {
      if (limits.max_result_codes > 0 && emitted >= limits.max_result_codes) {
        return Status::ResourceExhausted(
            "answer exceeds the result budget of " +
            std::to_string(limits.max_result_codes) + " codes (" +
            std::to_string(st->join_survivors) + " join survivors)");
      }
      ++emitted;
      out->push_back(jf->fragment->AbsoluteCode(answer_nodes[n]));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<DeweyCode>> AnswerWithViews(
    const TreePattern& query, const SelectionResult& selection,
    const FragmentStore& store, const Fst& fst, RewriteStats* stats,
    const RewriteOptions& options) {
  std::vector<DeweyCode> result;
  XVR_RETURN_IF_ERROR(
      AnswerCore(query, selection, store, fst, stats, options, &result));
  // Survivors emit in document order unless their fragments nest.
  if (!std::is_sorted(result.begin(), result.end())) {
    std::sort(result.begin(), result.end());
  }
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace xvr
