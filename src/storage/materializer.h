#ifndef XVR_STORAGE_MATERIALIZER_H_
#define XVR_STORAGE_MATERIALIZER_H_

// Materializes views: evaluates a view pattern over the base document and
// stores the subtree of every answer node as a Fragment.
//
// Following the paper's experimental setup (§VI), a per-view size budget
// (128 KB by default) rejects views whose materialization would be larger —
// querying huge unindexed fragments would be slower than the base database.

#include <functional>
#include <vector>

#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "storage/fragment.h"
#include "xml/xml_tree.h"

namespace xvr {

struct MaterializeOptions {
  // 0 disables the cap.
  size_t max_bytes_per_view = 128 * 1024;

  // Pluggable evaluator (defaults to pattern/evaluate.h's EvaluatePattern);
  // the engine injects the indexed evaluator for speed.
  std::function<std::vector<NodeId>(const TreePattern&, const XmlTree&)>
      evaluate;
};

// Evaluates `view` on `tree` (which must have Dewey codes) and returns its
// fragments in document order. Fails with CAPACITY_EXCEEDED when the
// fragments would exceed the budget (every answer is sized first, so a
// rejected view builds no fragment) and with NOT_FOUND when the view has an
// empty result (the paper materializes positive queries only).
Result<std::vector<Fragment>> MaterializeView(
    const TreePattern& view, const XmlTree& tree,
    const MaterializeOptions& options = {});

}  // namespace xvr

#endif  // XVR_STORAGE_MATERIALIZER_H_
