#ifndef XVR_EXEC_EVALUATOR_H_
#define XVR_EXEC_EVALUATOR_H_

// Facade over the two base-data execution baselines of the paper's Fig. 8:
// BN (basic node index) and BF (full path index). Indexes are built lazily
// and cached so concurrent readers (the server's workers) can share one
// evaluator: each index has a build mutex guarding its owning pointer and
// an atomic publication pointer for the lock-free fast path (classic
// double-checked locking, visible to the thread-safety analysis).

#include <atomic>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/node_index.h"
#include "exec/path_index.h"
#include "xml/xml_tree.h"

namespace xvr {

enum class BaseStrategy {
  kNodeIndex,  // BN
  kFullIndex,  // BF
};

class BaseEvaluator {
 public:
  // The tree must outlive the evaluator.
  explicit BaseEvaluator(const XmlTree& tree) : tree_(tree) {}

  std::vector<NodeId> Evaluate(const TreePattern& pattern,
                               BaseStrategy strategy) const;

  const NodeIndex& node_index() const XVR_EXCLUDES(node_mu_);
  const PathIndex& path_index() const XVR_EXCLUDES(path_mu_);

 private:
  const XmlTree& tree_;
  // One mutex per index: the mutex guards the owning pointer during the
  // build; the published atomic makes later reads lock-free (an acquire
  // load pairs with the release store after construction).
  mutable Mutex node_mu_;
  mutable Mutex path_mu_;
  mutable std::unique_ptr<NodeIndex> node_index_ XVR_GUARDED_BY(node_mu_);
  mutable std::unique_ptr<PathIndex> path_index_ XVR_GUARDED_BY(path_mu_);
  mutable std::atomic<const NodeIndex*> node_published_{nullptr};
  mutable std::atomic<const PathIndex*> path_published_{nullptr};
};

}  // namespace xvr

#endif  // XVR_EXEC_EVALUATOR_H_
