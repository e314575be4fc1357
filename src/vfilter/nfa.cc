#include "vfilter/nfa.h"

#include <algorithm>

#include "common/logging.h"

namespace xvr {

PathNfa::PathNfa() {
  NewState();  // start state
}

StateId PathNfa::NewState() {
  const StateId id = static_cast<StateId>(states_.size());
  states_.Set(id, State{});
  return id;
}

StateId PathNfa::Step(StateId from, const PathStep& step) {
  // '//' steps hang off the loop state of `from`.
  StateId source = from;
  if (step.axis == Axis::kDescendant) {
    source = states_[from].loop_state;
    if (source == kNoState) {
      source = NewState();
      states_.Mutable(source).is_loop = true;
      states_.Mutable(from).loop_state = source;
    }
  }
  if (step.label == kWildcardLabel) {
    StateId next = states_[source].star_trans;
    if (next == kNoState) {
      next = NewState();
      states_.Mutable(source).star_trans = next;
    }
    return next;
  }
  const auto& trans = states_[source].label_trans;
  const auto it = trans.find(step.label);
  if (it != trans.end()) {
    return it->second;
  }
  const StateId next = NewState();
  states_.Mutable(source).label_trans.emplace(step.label, next);
  NoteTransition(source, step.label, next);
  return next;
}

void PathNfa::BuildDenseFor(StateId s) {
  const State& state = states_[s];
  if (dense_index_.size() < states_.size()) {
    dense_index_.resize(states_.size(), -1);
  }
  std::vector<StateId> table;
  for (const auto& [label, target] : state.label_trans) {
    if (label < 0) {
      continue;
    }
    if (static_cast<size_t>(label) >= table.size()) {
      table.resize(static_cast<size_t>(label) + 1, kNoState);
    }
    table[static_cast<size_t>(label)] = target;
  }
  dense_index_[static_cast<size_t>(s)] =
      static_cast<int32_t>(dense_tables_.size());
  dense_tables_.push_back(std::move(table));
}

void PathNfa::NoteTransition(StateId from, LabelId label, StateId to) {
  if (label < 0) {
    return;
  }
  if (dense_index_.size() < states_.size()) {
    dense_index_.resize(states_.size(), -1);
  }
  const int32_t table = dense_index_[static_cast<size_t>(from)];
  if (table < 0) {
    // Not dense yet: promote once the fanout crosses the threshold
    // (BuildDenseFor reads label_trans, which already holds `to`).
    if (states_[from].label_trans.size() >= kDenseThreshold) {
      BuildDenseFor(from);
    }
    return;
  }
  std::vector<StateId>& dense = dense_tables_[static_cast<size_t>(table)];
  if (static_cast<size_t>(label) >= dense.size()) {
    dense.resize(static_cast<size_t>(label) + 1, kNoState);
  }
  dense[static_cast<size_t>(label)] = to;
}

void PathNfa::Insert(const PathPattern& path, int32_t view_id,
                     int32_t path_id, int32_t slot) {
  XVR_CHECK(!path.empty()) << "cannot insert an empty path pattern";
  StateId cur = start();
  for (const PathStep& step : path.steps()) {
    cur = Step(cur, step);
  }
  State& fin = states_.Mutable(cur);
  fin.is_accepting = true;
  const int32_t length = static_cast<int32_t>(path.Length());
  fin.accepts.push_back(AcceptEntry{view_id, path_id, length, slot});
}

void PathNfa::RemoveView(int32_t view_id) {
  const auto of_view = [view_id](const AcceptEntry& e) {
    return e.view_id == view_id;
  };
  // Scan read-only; write (and so clone) only the chunks holding the view's
  // entries.
  for (StateId id = 0; id < static_cast<StateId>(states_.size()); ++id) {
    const std::vector<AcceptEntry>& accepts = states_[id].accepts;
    if (std::none_of(accepts.begin(), accepts.end(), of_view)) {
      continue;
    }
    State& s = states_.Mutable(id);
    s.accepts.erase(
        std::remove_if(s.accepts.begin(), s.accepts.end(), of_view),
        s.accepts.end());
    if (s.accepts.empty()) {
      s.is_accepting = false;
    }
  }
}

void PathNfa::Read(const std::vector<int32_t>& tokens,
                   std::vector<const AcceptEntry*>* hits,
                   NfaReadScratch* scratch) const {
  hits->clear();
  scratch->current.clear();
  scratch->next.clear();
  if (scratch->mark.size() < states_.size()) {
    // A fresh scratch, or states were added since this scratch was last
    // used.
    scratch->mark.resize(states_.size(), 0);
    scratch->accept_mark.resize(states_.size(), 0);
  }
  // A scratch can serve a thread's every query, so the epochs must not
  // wrap: this read takes one read epoch and 1 + |tokens| epochs. Restart
  // them, clearing the marks, before they could.
  if (scratch->epoch > UINT32_MAX - 2 - tokens.size()) {
    std::fill(scratch->mark.begin(), scratch->mark.end(), 0u);
    scratch->epoch = 0;
  }
  if (scratch->read_epoch == UINT32_MAX) {
    std::fill(scratch->accept_mark.begin(), scratch->accept_mark.end(), 0u);
    scratch->read_epoch = 0;
  }

  // Once an accepting state is reached its self-loop absorbs every further
  // token, so acceptance is decided at first entry: record the hits
  // immediately and keep the state in the working set only for its outgoing
  // trie edges. This keeps the per-token cost proportional to the genuinely
  // active states instead of every accept collected so far.
  ++scratch->read_epoch;
  auto add = [this, hits, scratch](std::vector<StateId>* set, StateId id) {
    const State& s = states_[id];
    if (s.is_accepting &&
        scratch->accept_mark[static_cast<size_t>(id)] !=
            scratch->read_epoch) {
      scratch->accept_mark[static_cast<size_t>(id)] = scratch->read_epoch;
      for (const AcceptEntry& e : s.accepts) {
        hits->push_back(&e);
      }
    }
    if (scratch->mark[static_cast<size_t>(id)] != scratch->epoch) {
      scratch->mark[static_cast<size_t>(id)] = scratch->epoch;
      const bool has_outgoing = s.is_loop || !s.label_trans.empty() ||
                                s.star_trans != kNoState ||
                                s.loop_state != kNoState;
      if (has_outgoing) {
        set->push_back(id);
      }
      // Epsilon closure: entering a state also arms its '//' loop state.
      const StateId loop = s.loop_state;
      if (loop != kNoState &&
          scratch->mark[static_cast<size_t>(loop)] != scratch->epoch) {
        scratch->mark[static_cast<size_t>(loop)] = scratch->epoch;
        set->push_back(loop);
      }
    }
  };

  ++scratch->epoch;
  add(&scratch->current, start());

  for (int32_t token : tokens) {
    ++scratch->epoch;
    scratch->next.clear();
    for (StateId id : scratch->current) {
      const State& s = states_[id];
      // '//' waiting states self-loop on any token, including '#'.
      // (Accepting states already recorded their hits on entry; they stay
      // active only through their outgoing edges below.)
      if (s.is_loop) {
        add(&scratch->next, id);
      }
      if (token == kHashToken) {
        continue;  // '#' can only be absorbed by self-loops
      }
      if (token != kWildcardLabel) {
        // Dense dispatch: one array load instead of a hash probe for the
        // high-fanout states (the trie's first levels, where every read
        // spends its first tokens). Sub-threshold states use the sparse map.
        const int32_t table = static_cast<size_t>(id) < dense_index_.size()
                                  ? dense_index_[static_cast<size_t>(id)]
                                  : -1;
        StateId target = kNoState;
        if (table >= 0) {
          const std::vector<StateId>& dense =
              dense_tables_[static_cast<size_t>(table)];
          if (token >= 0 && static_cast<size_t>(token) < dense.size()) {
            target = dense[static_cast<size_t>(token)];
          }
        } else {
          const auto it = s.label_trans.find(token);
          if (it != s.label_trans.end()) {
            target = it->second;
          }
        }
        if (target != kNoState) {
          add(&scratch->next, target);
        }
      }
      // A '*' edge of a view consumes any label token and the '*' token; an
      // exact-label edge never consumes '*' (view /l does not contain /*).
      if (s.star_trans != kNoState) {
        add(&scratch->next, s.star_trans);
      }
    }
    scratch->current.swap(scratch->next);
    if (scratch->current.empty()) {
      return;
    }
  }
}

size_t PathNfa::num_transitions() const {
  size_t count = 0;
  for (const auto& [id, s] : states_) {
    (void)id;
    count += s.label_trans.size();
    if (s.star_trans != kNoState) ++count;
    if (s.loop_state != kNoState) ++count;     // the epsilon edge
    if (s.is_loop || s.is_accepting) ++count;  // the self-loop
  }
  return count;
}

size_t PathNfa::num_accept_entries() const {
  size_t count = 0;
  for (const auto& [id, s] : states_) {
    (void)id;
    count += s.accepts.size();
  }
  return count;
}

}  // namespace xvr
