#include "storage/materializer.h"

#include "common/fault_injection.h"
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
  std::vector<Fragment> fragments;
  fragments.reserve(answers.size());
  size_t bytes = 0;
  for (NodeId n : answers) {
    Fragment fragment = Fragment::FromTree(tree, n);
    bytes += fragment.ByteSize();
    if (options.max_bytes_per_view > 0 &&
        bytes > options.max_bytes_per_view) {
      return Status::CapacityExceeded(
          "materialized fragments exceed the per-view budget");
    }
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

}  // namespace xvr
