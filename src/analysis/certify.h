#ifndef XVR_ANALYSIS_CERTIFY_H_
#define XVR_ANALYSIS_CERTIFY_H_

// Static plan certification: prove a rewritten QueryPlan equivalent to its
// query without touching a document and without executing anything.
//
// The paper's correctness story is the answerability criterion ⋃ LC(V,Q) =
// LF(Q) (§IV-A) plus the compensating patterns that rebuild Q's semantics
// from the selected fragments (§V). The planner *computes* those artifacts;
// nothing in the serving path re-checks them. CertifyPlan is that check: an
// independent re-derivation of every claim a plan makes, using only the
// pattern algebra (homomorphism DP, §III-C normalization, the canonical-
// model coNP test) — never the selection code that produced the plan.
//
// The certificate is decided in three layers:
//
//  1. Witness re-derivation. Every selected view's recorded homomorphism is
//     re-checked against the homomorphism axioms (§II); every claimed leaf
//     of its cover is re-derived from scratch — condition (a) containment
//     under the anchor, condition (b) branch implication with freshly
//     extracted pinned witnesses — and the verified covers must union to
//     LF(Q). Value predicates above each anchor must be mirrored by the
//     view (the rewriter can only verify labels from Dewey codes). Any
//     unverifiable claim rejects the plan.
//  2. Compensation re-certification. The plan-hoisted refinement/anchor-
//     path/extraction patterns are recomputed exactly from (query, anchor)
//     and compared structurally; a drifted hoisted artifact (e.g. out of a
//     stale cache image) rejects the plan.
//  3. Composition cross-check. Each view's pattern is composed with its
//     refinement at the answer node (pattern/compose.h) and checked to not
//     *invent* constraints (Q ⊑ V∘refinement); the plan-wide verified
//     region of Q is projected out and checked to not *lose* constraints
//     (projection ⊑ Q). Both run through the DecideContainment escalation
//     ladder: homomorphism DP, normalized DP, then the canonical-model
//     coNP test where it applies. A refutation rejects; an undecidable
//     check (e.g. value predicates block the canonical test) leaves the
//     certificate inconclusive, never silently certified.
//
// Soundness boundary: layer 1 proves the plan's claims relative to the
// paper's criterion; a kCertified verdict means every claim was
// re-derived, a kRejected verdict carries at least one concrete finding.
// Base-data plans evaluate Q directly and are trivially certified.

#include <string>
#include <vector>

#include "core/planner.h"
#include "selection/answerability.h"
#include "xml/label_dict.h"

namespace xvr {

enum class CertifyVerdict : uint8_t {
  kCertified,     // every claim re-derived, compositions equivalent to Q
  kInconclusive,  // no claim refuted, but at least one check undecidable
  kRejected,      // a claim failed re-derivation (see findings)
};

const char* CertifyVerdictName(CertifyVerdict verdict);

// One failed or undecidable check: `check` names the certification layer
// ("structure", "mapping", "cover", "anchor-path", "compensation",
// "composition"), `detail` the concrete claim and why it failed.
struct CertifyFinding {
  std::string check;
  std::string detail;
};

struct Certificate {
  CertifyVerdict verdict = CertifyVerdict::kCertified;
  // The plan is sound but not minimal: dropping some selected view keeps
  // the verified covers complete. Greedy/degraded plans may trip this; it
  // never rejects.
  bool non_minimal = false;
  // The plan was produced by a degraded planner path (the greedy
  // fallback). Certified like any other plan; flagged so soaks can tell
  // sound-but-degraded from clean.
  bool degraded_plan = false;
  // Canonical-model (coNP) escalations that ran / checks left undecided.
  int escalations = 0;
  int inconclusive_checks = 0;
  std::vector<CertifyFinding> findings;

  // One line: verdict, flags, counts and the first finding (if any).
  std::string Summary() const;
};

struct CertifyOptions {
  // Dictionary for the canonical-model escalation; null disables that rung
  // (undecidable composition checks then stay inconclusive). CertifyPlan
  // copies it once per call — the escalation interns a scratch label, and
  // LabelDict::Intern is not thread-safe against concurrent serving.
  const LabelDict* dict = nullptr;
  // Escalation guard: containees with more descendant edges than this do
  // not run the canonical test (it is exponential in them).
  int max_canonical_desc_edges = 6;
};

// Certifies `plan` against the catalog exposed by `lookup` (pin one
// CatalogSnapshot and pass its MakeLookup() — the same contract as
// selection). Pure: no document access, no execution, no mutation of the
// plan or the catalog.
Certificate CertifyPlan(const QueryPlan& plan, const ViewLookup& lookup,
                        const CertifyOptions& options = {});

}  // namespace xvr

#endif  // XVR_ANALYSIS_CERTIFY_H_
