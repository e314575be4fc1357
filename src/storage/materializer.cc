#include "storage/materializer.h"

#include <cstdint>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "pattern/evaluate.h"

namespace xvr {

Result<std::vector<Fragment>> MaterializeView(
    const TreePattern& view, const XmlTree& tree,
    const MaterializeOptions& options) {
  XVR_FAULT_POINT("materializer.capacity",
                  return Status::CapacityExceeded(
                      "injected: materializer.capacity"));
  const std::vector<NodeId> answers =
      options.evaluate ? options.evaluate(view, tree)
                       : EvaluatePattern(view, tree);
  if (answers.empty()) {
    return Status::NotFound("view has an empty result");
  }
  // Size every answer before building any fragment, so a view over the
  // budget is rejected without copying a node.
  const size_t budget =
      options.max_bytes_per_view > 0 ? options.max_bytes_per_view : SIZE_MAX;
  size_t bytes = 0;
  for (NodeId n : answers) {
    bytes += Fragment::SubtreeByteSize(tree, n, budget - bytes);
    if (bytes > budget) {
      return Status::CapacityExceeded(
          "materialized fragments exceed the per-view budget");
    }
  }
  std::vector<Fragment> fragments;
  fragments.reserve(answers.size());
  for (NodeId n : answers) {
    fragments.push_back(Fragment::FromTree(tree, n));
#if defined(XVR_VALIDATE)
    const size_t sized = Fragment::SubtreeByteSize(tree, n);
    XVR_CHECK(fragments.back().ByteSize() == sized)
        << "node " << n << ": built size differs from pre-build size";
#endif
  }
  return fragments;
}

}  // namespace xvr
