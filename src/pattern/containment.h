#ifndef XVR_PATTERN_CONTAINMENT_H_
#define XVR_PATTERN_CONTAINMENT_H_

// Tree pattern containment (paper §II / §III-A).
//
// P ⊑ P' iff P(D) implies P'(D) for every database D (boolean semantics,
// answer nodes ignored). Three testers are provided:
//
//  * ContainsByHomomorphism — PTIME, sound but incomplete in general;
//    complete when the container is a path pattern (Theorem 3.1).
//  * PathContains — containment between two path patterns: both sides are
//    normalized first (§III-C), then checked by homomorphism. This is the
//    test VFILTER realizes as an automaton.
//  * ContainsCanonical — the complete coNP test via canonical models
//    (Miklau & Suciu, the paper's [14][15]). Exponential in the number of
//    //-edges of the contained pattern; intended for tests, verification
//    and the Fig. 10 utility measurements on small patterns. Patterns with
//    value predicates are not supported here.

#include "pattern/path_pattern.h"
#include "pattern/tree_pattern.h"
#include "xml/label_dict.h"

namespace xvr {

// True iff a homomorphism container -> containee exists, witnessing
// containee ⊑ container.
[[nodiscard]] bool ContainsByHomomorphism(const TreePattern& container,
                            const TreePattern& containee);

// containee ⊑ container for path patterns (complete; normalizes internally).
[[nodiscard]] bool PathContains(const PathPattern& container, const PathPattern& containee);

// Complete containment containee ⊑ container by enumerating canonical
// models of `containee` and evaluating `container` on each. `dict` must be
// the dictionary the patterns were parsed with (a fresh scratch label is
// interned). Exponential; keep patterns small.
[[nodiscard]] bool ContainsCanonical(const TreePattern& container,
                       const TreePattern& containee, LabelDict* dict);

// Both-way containment.
bool EquivalentCanonical(const TreePattern& a, const TreePattern& b,
                         LabelDict* dict);

// Three-valued outcome of the escalating containment decision below.
enum class ContainmentVerdict : uint8_t {
  kContained,     // containee ⊑ container, proven
  kNotContained,  // refuted by a complete test
  kUnknown,       // the sound test failed and no complete test applied
};

const char* ContainmentVerdictName(ContainmentVerdict verdict);

// Decides containee ⊑ container through an escalation ladder:
//
//   1. homomorphism DP on the patterns as given (sound: a hit is a proof);
//   2. homomorphism DP after §III-C normalization of both sides (catches
//      the Example 3.2/3.3 false negatives);
//   3. when neither normalized side carries a wildcard (XP{/,//,[]}), the
//      miss is final — the homomorphism test is complete on that fragment.
//      (A path-shaped container is NOT sufficient: with wildcards the
//      container can match inside a //-chain that no homomorphism reaches.);
//   4. otherwise, when `dict` is non-null, both patterns are free of value
//      predicates and the containee has at most `max_canonical_desc_edges`
//      descendant edges, the exact Miklau–Suciu canonical-model test
//      decides (coNP — the edge bound caps the enumeration); `*escalated`
//      is set when this rung runs;
//   5. else kUnknown.
//
// `dict` must be the dictionary the patterns were parsed with; it is
// mutated (a scratch label is interned), so callers certifying concurrently
// with serving must pass a private copy. `escalated` may be null.
ContainmentVerdict DecideContainment(const TreePattern& container,
                                     const TreePattern& containee,
                                     LabelDict* dict,
                                     int max_canonical_desc_edges,
                                     bool* escalated = nullptr);

}  // namespace xvr

#endif  // XVR_PATTERN_CONTAINMENT_H_
