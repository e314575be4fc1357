#include "exec/evaluator.h"

namespace xvr {

const NodeIndex& BaseEvaluator::node_index() const {
  if (const NodeIndex* built =
          node_published_.load(std::memory_order_acquire)) {
    return *built;
  }
  MutexLock lock(&node_mu_);
  if (node_index_ == nullptr) {
    node_index_ = std::make_unique<NodeIndex>(tree_);
    node_published_.store(node_index_.get(), std::memory_order_release);
  }
  return *node_index_;
}

const PathIndex& BaseEvaluator::path_index() const {
  if (const PathIndex* built =
          path_published_.load(std::memory_order_acquire)) {
    return *built;
  }
  MutexLock lock(&path_mu_);
  if (path_index_ == nullptr) {
    path_index_ = std::make_unique<PathIndex>(tree_);
    path_published_.store(path_index_.get(), std::memory_order_release);
  }
  return *path_index_;
}

void BaseEvaluator::Warm(BaseStrategy strategy) const {
  switch (strategy) {
    case BaseStrategy::kNodeIndex:
      node_index();
      break;
    case BaseStrategy::kFullIndex:
      path_index();
      break;
  }
}

std::vector<NodeId> BaseEvaluator::Evaluate(const TreePattern& pattern,
                                            BaseStrategy strategy) const {
  switch (strategy) {
    case BaseStrategy::kNodeIndex:
      return node_index().Evaluate(pattern);
    case BaseStrategy::kFullIndex:
      return path_index().Evaluate(pattern);
  }
  return {};
}

}  // namespace xvr
