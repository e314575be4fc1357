#ifndef XVR_ANALYSIS_VALIDATE_H_
#define XVR_ANALYSIS_VALIDATE_H_

// Machine-checkable structural invariants of every subsystem.
//
// The equivalence guarantees of the paper hang on fine-grained structural
// conditions: the rewriter's leaf-cover criterion is only sound if extended
// Dewey codes really are in document order and FST-decodable (§II), VFILTER
// is only false-negative-free if indexed paths are normalized (§III-C) and
// the NFA's transition closure is intact, and fragment joins require every
// fragment root to decode to a prefix of its view's answer path (§V). Each
// validator below re-derives one of those conditions from scratch and
// returns a non-OK Status naming the first violation.
//
// The validators are always compiled (tests call them directly); the
// XVR_DEBUG_VALIDATE hooks inside the engine additionally run them on the
// live data structures in XVR_VALIDATE builds (the default for Debug, see
// the top-level CMakeLists) and abort on violation.

#include "common/logging.h"
#include "common/status.h"
#include "core/catalog.h"
#include "core/planner.h"
#include "pattern/path_pattern.h"
#include "storage/catalog_wal.h"
#include "pattern/tree_pattern.h"
#include "selection/answerability.h"
#include "storage/fragment_store.h"
#include "vfilter/vfilter.h"
#include "xml/fst.h"
#include "xml/xml_tree.h"

namespace xvr {

// Document invariants: Dewey codes assigned and parent-prefixed, siblings
// in strictly increasing (document) order, and every code decodable by the
// schema FST back to the node's actual root-to-node label path.
Status ValidateDocument(const XmlTree& doc);

// Tree pattern invariants: a connected, acyclic parent/child structure
// rooted at node 0, valid labels and axes, an answer node inside the
// pattern, and well-formed value predicates. With `require_normalized`,
// additionally checks every root-to-leaf path is in §III-C normal form
// (what VFILTER indexes and reads).
Status ValidateTreePattern(const TreePattern& pattern,
                           bool require_normalized = false);

// Path pattern invariants: non-empty, valid labels, well-formed
// predicates; with `require_normalized`, N(P) == P (§III-C).
Status ValidatePathPattern(const PathPattern& path,
                           bool require_normalized = false);

// VFILTER invariants: every NFA transition (label, '*', '//'-loop)
// targets an existing state, loop bookkeeping is consistent, accepting
// states and accept entries agree with the view registry (|D(V)| counts,
// no duplicate (view, path) registrations, positive path lengths).
Status ValidateVFilter(const VFilter& filter);

// Fragment store invariants: per view, fragments sorted strictly ascending
// by root code; every fragment is a well-formed tree whose node codes
// decode through the document FST to the node's label; and, when `lookup`
// resolves the view's pattern, every fragment root decodes to a label path
// matched by the view's root-to-answer path (the precondition of the
// holistic fragment join, §V). `lookup` may be empty.
Status ValidateFragmentStore(const FragmentStore& store, const Fst& fst,
                             const ViewLookup& lookup = nullptr);

// The per-view slice of ValidateFragmentStore — what the AddView hook runs
// so repeated catalog loads stay linear instead of quadratic.
Status ValidateViewFragments(const FragmentStore& store, int32_t view_id,
                             const Fst& fst,
                             const ViewLookup& lookup = nullptr);

// Answer invariant: extended Dewey codes in strictly increasing document
// order (what every AnswerQuery strategy promises).
Status ValidateAnswerCodes(const std::vector<DeweyCode>& codes);

// Flat-fragment layout invariants, on the raw block (storage/fragment.h):
// the header's counts size exactly the block; node 0 is the root and every
// other node's parent precedes it (preorder); every subtree_end is in
// (i, num_nodes] (the root's is num_nodes), and each node's children tile
// its subtree range by subtree_end jumps, name it as their parent and
// ascend in Dewey component; text and attribute-list ids are strictly
// ascending and below the node count, the attribute ranges tile the
// attribute array, and every pool string lies inside the pool, the block's
// tail. Takes the bytes rather than a Fragment so tests can hand-edit
// corrupt blocks — Deserialize rejects any image whose nodes are not in
// preorder, so a corrupt in-memory fragment can only come from a bug in the
// block writer itself or from memory corruption.
Status ValidateFlatFragmentLayout(std::span<const std::byte> block);

// The live-fragment wrapper: layout invariants plus a non-empty root code
// whose last component matches the root node's dewey_component.
Status ValidateFlatFragment(const Fragment& fragment);

// Catalog snapshot invariants — the consistency every published snapshot
// promises its readers (src/core/catalog.h): quarantined ids are a subset
// of the views map; the VFILTER view registry indexes exactly the serving
// (non-quarantined) views; the fragment store holds fragments for exactly
// the serving views (the invariant MakeLookup relies on); and every id is
// below next_view_id. Run by the engine on every publish in XVR_VALIDATE
// builds.
Status ValidateCatalogSnapshot(const CatalogSnapshot& catalog);

// Catalog WAL invariants: sequence numbers strictly increasing, add
// records carry a pattern, remove records carry none, ops are known.
Status ValidateCatalogWalRecords(const std::vector<CatalogWalRecord>& records);

// Plan cache accounting invariants: every lookup resolves to exactly one
// hit or one miss (hits + misses == lookups), a stale drop is one flavor
// of miss (stale_drops <= misses), and every publish-swept entry is
// classified exactly once (dep_invalidations + fingerprint_invalidations
// + survived_publications == publish_entries_swept). Run by the pipeline
// after every cache interaction in XVR_VALIDATE builds; keeps HitRatio()
// honest.
Status ValidatePlanCacheStats(const PlanCache::Stats& stats);

// Plan cache dependency invariants: for a sample of surviving entries,
// re-runs VFILTER against the given (just-published) catalog and checks
// the plan's recorded positive dependency set still matches the fresh
// candidate set. A mismatch means a publish sweep under-invalidated — the
// bug class the dependency tracker must exclude by construction. Skips
// catalog-free plans, negative (tombstone) entries, and MN plans (whose
// dependency set is the selected cover, not the candidate set). Run by
// the engine after every publish in XVR_VALIDATE builds.
Status ValidatePlanCacheDependencies(const PlanCache* cache,
                                     const CatalogSnapshot& catalog);

}  // namespace xvr

// Runs a validator and aborts with its message on violation — only in
// XVR_VALIDATE builds (Debug default); expands to nothing (the expression
// is NOT evaluated) otherwise.
#if defined(XVR_VALIDATE)
#define XVR_DEBUG_VALIDATE(status_expr)                        \
  do {                                                         \
    const ::xvr::Status xvr_validate_status_ = (status_expr);  \
    XVR_CHECK(xvr_validate_status_.ok())                       \
        << "invariant violation: " << xvr_validate_status_;    \
  } while (false)
#else
#define XVR_DEBUG_VALIDATE(status_expr) \
  do {                                  \
  } while (false)
#endif

#endif  // XVR_ANALYSIS_VALIDATE_H_
