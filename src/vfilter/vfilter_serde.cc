#include "vfilter/vfilter_serde.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"

namespace xvr {
namespace {

// Hash-map entries sorted by key, so the image bytes are identical across
// platforms and standard libraries (hash iteration order is not).
template <typename Map>
std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
SortedEntries(const Map& map) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
      entries(map.begin(), map.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

constexpr uint32_t kMagic = 0x56464C54;  // "VFLT"
// v4 frames the payload with its length and a trailing FNV-1a checksum
// (matching the KvStore image discipline).
constexpr uint32_t kVersion = 4;

// Options flags. kSharedPrefixes is always set and kCounterMode never: the
// NFA is a trie and candidacy is per-path coverage. An image without the
// first or with the second came from an unshared or counter-mode filter,
// which this reader does not rebuild.
constexpr uint32_t kNormalize = 1;
constexpr uint32_t kSharedPrefixes = 2;
constexpr uint32_t kCounterMode = 4;
constexpr uint32_t kIndexAttributes = 8;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

// A transition's target list: empty for kNoState, else the one target.
void PutTarget(StateId target, std::string* out) {
  if (target == kNoState) {
    PutU32(0, out);
    return;
  }
  PutU32(1, out);
  PutI32(target, out);
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadI32(int32_t* v) {
    uint32_t u;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool ReadBytes(uint32_t len, std::string* out) {
    if (pos_ + len > bytes_.size()) return false;
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  // A target list of at most one entry (kNoState when empty). A trie
  // state has no second target for a symbol, so a longer list is corrupt,
  // as is a listed kNoState.
  bool ReadTarget(StateId* target) {
    uint32_t n = 0;
    if (!ReadU32(&n) || n > 1) return false;
    *target = kNoState;
    return n == 0 || (ReadI32(target) && *target != kNoState);
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// The image payload (everything inside the v4 framing): options flags, pred
// dictionary, view registry, NFA states.
Result<VFilter> ParseVFilterBody(std::string_view payload) {
  Reader r(payload);
  uint32_t flags = 0;
  if (!r.ReadU32(&flags)) {
    return Status::ParseError("truncated VFilter image");
  }
  if ((flags & kSharedPrefixes) == 0 || (flags & kCounterMode) != 0) {
    return Status::ParseError(
        "VFilter image of an unshared or counter-mode filter");
  }
  VFilterOptions options;
  options.normalize = (flags & kNormalize) != 0;
  options.index_attributes = (flags & kIndexAttributes) != 0;
  VFilter filter(options);

  uint32_t num_preds = 0;
  if (!r.ReadU32(&num_preds) || num_preds > payload.size()) {
    return Status::ParseError("truncated VFilter image (pred dictionary)");
  }
  for (uint32_t i = 0; i < num_preds; ++i) {
    uint32_t len = 0;
    if (!r.ReadU32(&len)) {
      return Status::ParseError("truncated VFilter image (pred key)");
    }
    std::string key;
    if (!r.ReadBytes(len, &key)) {
      return Status::ParseError("truncated VFilter image (pred key bytes)");
    }
    int32_t id = 0;
    if (!r.ReadI32(&id)) {
      return Status::ParseError("truncated VFilter image (pred id)");
    }
    filter.mutable_pred_ids()[key] = id;
  }

  uint32_t num_views = 0;
  if (!r.ReadU32(&num_views) || num_views > payload.size() / 8) {
    return Status::ParseError("truncated VFilter image (views)");
  }
  std::vector<std::pair<int32_t, int32_t>> registry(num_views);
  for (uint32_t i = 0; i < num_views; ++i) {
    if (!r.ReadI32(&registry[i].first) || !r.ReadI32(&registry[i].second)) {
      return Status::ParseError("truncated VFilter image (view entry)");
    }
    // The writer sorts the registry, so a repeated id is corruption.
    if (i > 0 && registry[i].first <= registry[i - 1].first) {
      return Status::ParseError("corrupt VFilter image (view registry order)");
    }
    if (registry[i].first < 0) {
      return Status::ParseError("corrupt VFilter image (negative view id)");
    }
  }
  filter.RestoreViews(registry);

  uint32_t num_states = 0;
  if (!r.ReadU32(&num_states) || num_states > payload.size() / 8) {
    return Status::ParseError("truncated VFilter image (states)");
  }
  PathNfa& nfa = filter.mutable_nfa();
  nfa.ResetStates(num_states);
  for (uint32_t i = 0; i < num_states; ++i) {
    PathNfa::State& s = nfa.mutable_state(static_cast<StateId>(i));
    uint32_t state_flags = 0;
    uint32_t num_trans = 0;
    uint32_t num_accepts = 0;
    if (!r.ReadU32(&state_flags) || !r.ReadTarget(&s.star_trans) ||
        !r.ReadTarget(&s.loop_state) || !r.ReadU32(&num_trans)) {
      return Status::ParseError("truncated or corrupt VFilter image (state)");
    }
    s.is_loop = (state_flags & 1u) != 0;
    s.is_accepting = (state_flags & 2u) != 0;
    if (num_trans > payload.size() / 8) {
      return Status::ParseError("corrupt VFilter image (transition count)");
    }
    for (uint32_t t = 0; t < num_trans; ++t) {
      int32_t label = 0;
      StateId target = kNoState;
      if (!r.ReadI32(&label) || !r.ReadTarget(&target) ||
          target == kNoState) {
        return Status::ParseError(
            "truncated or corrupt VFilter image (transition)");
      }
      s.label_trans.emplace(label, target);
    }
    uint32_t num_pred_trans = 0;
    if (!r.ReadU32(&num_pred_trans) || num_pred_trans > payload.size() / 8) {
      return Status::ParseError("truncated VFilter image (pred trans count)");
    }
    for (uint32_t t = 0; t < num_pred_trans; ++t) {
      int32_t token = 0;
      StateId target = kNoState;
      if (!r.ReadI32(&token) || !r.ReadTarget(&target) ||
          target == kNoState) {
        return Status::ParseError(
            "truncated or corrupt VFilter image (pred trans)");
      }
      s.pred_trans.emplace(token, target);
    }
    if (!r.ReadU32(&num_accepts) || num_accepts > payload.size() / 12) {
      return Status::ParseError("truncated VFilter image (accepts)");
    }
    for (uint32_t a = 0; a < num_accepts; ++a) {
      AcceptEntry e;
      if (!r.ReadI32(&e.view_id) || !r.ReadI32(&e.path_id) ||
          !r.ReadI32(&e.length)) {
        return Status::ParseError("truncated VFilter image (accept entry)");
      }
      // Slots are derived: the entry takes its view's, which RestoreViews
      // gave by registry position. An entry outside the registry (unknown
      // view, or path id outside [0, |D(V)|)) would index past Filter's
      // per-slot bookkeeping.
      const auto view = std::lower_bound(
          registry.begin(), registry.end(), e.view_id,
          [](const std::pair<int32_t, int32_t>& entry, int32_t id) {
            return entry.first < id;
          });
      if (view == registry.end() || view->first != e.view_id ||
          e.path_id < 0 || e.path_id >= view->second) {
        return Status::ParseError(
            "corrupt VFilter image (accept entry outside the view registry)");
      }
      e.slot = static_cast<int32_t>(view - registry.begin());
      s.accepts.push_back(e);
    }
  }
  // Validate every referenced state id so a corrupt image can never index
  // out of bounds at read time.
  const auto valid = [&](StateId id) {
    return id >= 0 && static_cast<uint32_t>(id) < num_states;
  };
  for (const auto& [id, s] : nfa.states()) {
    (void)id;
    if ((s.star_trans != kNoState && !valid(s.star_trans)) ||
        (s.loop_state != kNoState && !valid(s.loop_state))) {
      return Status::ParseError("corrupt VFilter state id");
    }
    // Order-insensitive bounds check, not output. (lint:ordered-ok)
    for (const auto& [label, t] : s.label_trans) {  // lint:ordered-ok
      (void)label;
      if (!valid(t)) return Status::ParseError("corrupt VFilter state id");
    }
    for (const auto& [token, t] : s.pred_trans) {  // lint:ordered-ok
      (void)token;
      if (!valid(t)) return Status::ParseError("corrupt VFilter state id");
    }
  }
  // The states were installed wholesale, bypassing Insert's incremental
  // dense-table maintenance; derive the dispatch tables now.
  nfa.RebuildDispatch();
  return filter;
}

}  // namespace

std::string SerializeVFilter(const VFilter& filter) {
  std::string payload;
  const VFilterOptions& opt = filter.options();
  PutU32((opt.normalize ? kNormalize : 0u) | kSharedPrefixes |
             (opt.index_attributes ? kIndexAttributes : 0u),
         &payload);
  // Pred dictionary (attribute extension).
  PutU32(static_cast<uint32_t>(filter.pred_ids().size()), &payload);
  for (const auto& [key, id] : SortedEntries(filter.pred_ids())) {
    PutU32(static_cast<uint32_t>(key.size()), &payload);
    payload.append(key);
    PutI32(id, &payload);
  }
  // View registry (slots are derived, not stored).
  const std::vector<std::pair<int32_t, int32_t>> registry =
      filter.ViewPathCounts();
  PutU32(static_cast<uint32_t>(registry.size()), &payload);
  for (const auto& [view_id, num_paths] : registry) {
    PutI32(view_id, &payload);
    PutI32(num_paths, &payload);
  }
  // States.
  const auto& states = filter.nfa().states();
  PutU32(static_cast<uint32_t>(states.size()), &payload);
  for (const auto& [id, s] : states) {
    (void)id;
    PutU32((s.is_loop ? 1u : 0u) | (s.is_accepting ? 2u : 0u), &payload);
    PutTarget(s.star_trans, &payload);
    PutTarget(s.loop_state, &payload);
    PutU32(static_cast<uint32_t>(s.label_trans.size()), &payload);
    for (const auto& [label, target] : SortedEntries(s.label_trans)) {
      PutI32(label, &payload);
      PutTarget(target, &payload);
    }
    PutU32(static_cast<uint32_t>(s.pred_trans.size()), &payload);
    for (const auto& [token, target] : SortedEntries(s.pred_trans)) {
      PutI32(token, &payload);
      PutTarget(target, &payload);
    }
    PutU32(static_cast<uint32_t>(s.accepts.size()), &payload);
    for (const AcceptEntry& e : s.accepts) {
      PutI32(e.view_id, &payload);
      PutI32(e.path_id, &payload);
      PutI32(e.length, &payload);
    }
  }
  // v4 frame: header, payload length, payload, FNV-1a of the payload.
  std::string out;
  out.reserve(payload.size() + 24);
  PutU32(kMagic, &out);
  PutU32(kVersion, &out);
  PutU64(payload.size(), &out);
  out += payload;
  PutU64(Fnv1a(payload), &out);
  return out;
}

Result<VFilter> DeserializeVFilter(const std::string& bytes) {
  XVR_FAULT_POINT("vfilter_serde.decode",
                  return Status::ParseError("injected: vfilter_serde.decode"));
  Reader header(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!header.ReadU32(&magic) || magic != kMagic) {
    return Status::ParseError("bad VFilter image magic");
  }
  if (!header.ReadU32(&version) || version != kVersion) {
    return Status::ParseError("unsupported VFilter image version");
  }
  uint64_t payload_len = 0;
  if (!header.ReadU64(&payload_len) ||
      payload_len != bytes.size() - 24) {  // 8 header + 8 length + 8 checksum
    return Status::ParseError("bad VFilter image framing (payload length)");
  }
  const std::string_view payload =
      std::string_view(bytes).substr(16, payload_len);
  uint64_t want = 0;
  std::memcpy(&want, bytes.data() + 16 + payload_len, 8);
  if (Fnv1a(payload) != want) {
    return Status::ParseError("VFilter image checksum mismatch");
  }
  return ParseVFilterBody(payload);
}

size_t SerializedVFilterSize(const VFilter& filter) {
  return SerializeVFilter(filter).size();
}

}  // namespace xvr
