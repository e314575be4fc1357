#ifndef XVR_VFILTER_NFA_H_
#define XVR_VFILTER_NFA_H_

// The NFA underlying VFILTER (paper §III-B, Figures 4 and 5).
//
// The automaton reads the token string STR(P) of a query path pattern —
// labels, '*' tokens and '#' tokens (for //) — and reaches the accepting
// state of every indexed view path pattern P_f with P ⊑ P_f. VFilter
// indexes and reads each path in its raw and its normalized form
// (ForEachPathForm, vfilter/vfilter.h); the automaton is purely
// structural, and value predicates are not indexed.
//
// Construction mirrors the paper's four basic fragments:
//   /l   : a transition on label l
//   /*   : a transition on the '*' symbol (matches any label token, not '#')
//   //l  : an epsilon edge to a self-loop state (accepts every token,
//          including '#'), then a transition on l
//   //*  : the self-loop state, then a '*' transition
// Fragments are concatenated along the trie of path patterns so common
// prefixes share states: each state has at most one target per label, one
// '*' target and one '//' loop state. Accepting states additionally
// self-loop on every token ("accepts any label or edge"), so a longer query
// path stays accepted by a shorter view path it extends.
//
// States live in a copy-on-write table indexed by state id
// (common/cow_table.h): a catalog snapshot's copy of the NFA shares every
// chunk of 64 states, and an Insert or RemoveView clones only the chunks
// it writes. Reads go through const accessors and never clone.
//
// Token conventions (see pattern/path_pattern.h):
//   label ids >= 0, kWildcardLabel for '*', kHashToken for '#'.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cow_table.h"
#include "pattern/path_pattern.h"
#include "xml/label_dict.h"

namespace xvr {

using StateId = int32_t;
inline constexpr StateId kNoState = -1;

// A view path pattern registered at an accepting state.
struct AcceptEntry {
  int32_t view_id = -1;
  int32_t path_id = -1;  // index of the path inside the view's D(V)
  int32_t length = 0;    // number of labels of the view path (for LIST(P))
  // The view's dense slot in its VFilter (VFilter::SlotOf), which AddView
  // assigns.
  int32_t slot = 0;
};

// Per-thread scratch for PathNfa::Read and VFilter::Filter. The automaton
// itself is immutable during reads; all runtime state (active-state
// frontier, visited epochs, per-view bookkeeping) lives here so that any
// number of threads can Read the same NFA concurrently, each with its own
// scratch. Reusing one scratch across calls — and across filters — keeps
// the hot path allocation-free: the epochs and stamps mean nothing is
// cleared between calls, except when they restart before they could wrap.
struct NfaReadScratch {
  std::vector<uint32_t> mark;
  uint32_t epoch = 0;
  // Guards against recording one accepting state twice within a Read.
  std::vector<uint32_t> accept_mark;
  uint32_t read_epoch = 0;
  std::vector<StateId> current;
  std::vector<StateId> next;
  // VFilter::Filter's per-query-path buffers: the token strings read into
  // the NFA (one per form of the path, see ForEachPathForm) and the accept
  // entries a read reached.
  std::vector<std::vector<int32_t>> read_tokens;
  std::vector<const AcceptEntry*> hits;
  // VFilter::Filter's bookkeeping for one view, indexed by its slot. A
  // field is valid only while its stamp matches the current call or query
  // path; Filter draws both kinds of stamp from `filter_stamp`.
  struct SlotRecord {
    uint32_t call = 0;     // the Filter call that last touched the slot
    uint32_t path = 0;     // the query path that last touched it
    uint64_t mask = 0;     // view paths (ids < 64) accepted in this call
    int32_t list_pos = 0;  // the slot's entry in the current LIST(P_i)
  };
  std::vector<SlotRecord> slot_records;
  std::vector<int32_t> touched_slots;  // slots touched by this call
  uint32_t filter_stamp = 0;
};

class PathNfa {
 public:
  PathNfa();

  // Inserts path pattern `path` of view `view_id`, following the trie as
  // far as it matches and adding states for the rest. `slot` is copied into
  // the accept entry (VFilter passes the view's slot).
  void Insert(const PathPattern& path, int32_t view_id, int32_t path_id,
              int32_t slot = 0);

  // Removes the accept entries of `view_id` (states are retained; the NFA
  // supports cheap logical deletion as pointed out in §III-D (3)). Writes
  // only the state chunks that hold such entries; copies of this NFA keep
  // sharing the rest.
  void RemoveView(int32_t view_id);

  // Runs the token string and returns the accept entries of every accepting
  // state reachable after consuming all tokens. Thread-safe: the automaton
  // is read-only and all runtime state lives in `scratch` (one per thread;
  // reuse across calls to stay allocation-free). The entries point into
  // this NFA's state chunks: they stay valid while the NFA (for queries,
  // the pinned catalog snapshot) is alive and unmodified.
  void Read(const std::vector<int32_t>& tokens,
            std::vector<const AcceptEntry*>* hits,
            NfaReadScratch* scratch) const;

  // Convenience overload with call-local scratch (tests, one-off reads).
  void Read(const std::vector<int32_t>& tokens,
            std::vector<const AcceptEntry*>* hits) const {
    NfaReadScratch scratch;
    Read(tokens, hits, &scratch);
  }

  // --- statistics ----------------------------------------------------------

  size_t num_states() const { return states_.size(); }
  size_t num_transitions() const;
  size_t num_accept_entries() const;

  struct State {
    std::unordered_map<LabelId, StateId> label_trans;
    StateId star_trans = kNoState;
    StateId loop_state = kNoState;  // the '//' waiting state hanging off this
    bool is_loop = false;           // self-loops on every token
    bool is_accepting = false;
    std::vector<AcceptEntry> accepts;
  };
  // The states, indexed by state id (dense: ids 0 .. num_states() - 1).
  // Copies of an NFA share its state chunks copy-on-write
  // (common/cow_table.h).
  const CowTable<State>& states() const { return states_; }
  // Write access to one state; clones its chunk if a copy shares it. For
  // tests that inject corruptions: a structural edit leaves the derived
  // dense tables stale.
  State& mutable_state(StateId id) { return states_.Mutable(id); }
  StateId start() const { return 0; }

  // --- dense label dispatch (derived) --------------------------------------
  //
  // A state whose label fanout reaches kDenseThreshold gets a label-indexed
  // target table, turning the hot Read() lookup from a hash probe into an
  // array load. States below the threshold (the long tail: trie chains with
  // fanout 1-2) keep the sparse map. Maintained incrementally by Insert.

  size_t num_dense_states() const { return dense_tables_.size(); }

 private:
  StateId NewState();
  // Follows/creates the transition for one step out of `from`.
  StateId Step(StateId from, const PathStep& step);
  // Incremental dense maintenance for one new label transition.
  void NoteTransition(StateId from, LabelId label, StateId to);
  void BuildDenseFor(StateId s);

  CowTable<State> states_;
  // The dense dispatch tables below are plain vectors, copied whole with
  // the NFA: a few KB even at thousands of states.
  // state -> index into dense_tables_, or -1 for sparse states.
  std::vector<int32_t> dense_index_;
  // Per dense state: label -> target (kNoState when there is none).
  std::vector<std::vector<StateId>> dense_tables_;

 public:
  // Fanout at which a state's dispatch flips from sparse to dense. Picked
  // empirically (DESIGN.md "Hot-path memory architecture"): below ~8 a
  // linear/hash probe over the map wins on memory, at 8+ the array load
  // wins on time; XMark catalogs put the high-fanout mass at the trie's
  // first two levels.
  static constexpr size_t kDenseThreshold = 8;
};

}  // namespace xvr

#endif  // XVR_VFILTER_NFA_H_
