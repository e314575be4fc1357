#ifndef XVR_PATTERN_PATH_PATTERN_H_
#define XVR_PATTERN_PATH_PATTERN_H_

// Path patterns (branch-free tree patterns) and the decomposition D(Q) of a
// tree pattern into its distinct root-to-leaf path patterns (paper §III-A).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pattern/tree_pattern.h"
#include "xml/label_dict.h"

namespace xvr {

struct PathStep {
  Axis axis = Axis::kChild;
  LabelId label = kInvalidLabel;  // kWildcardLabel for '*'
  // Kept through decomposition: D(Q) keeps paths with different predicates
  // apart, normalization never moves a predicated wildcard, and paths print
  // their predicates. VFILTER's token stream ignores it.
  std::optional<ValuePredicate> pred;

  friend bool operator==(const PathStep& a, const PathStep& b) = default;
};

// A linear pattern: step 0's axis anchors the pattern at the document root.
class PathPattern {
 public:
  PathPattern() = default;
  explicit PathPattern(std::vector<PathStep> steps)
      : steps_(std::move(steps)) {}

  const std::vector<PathStep>& steps() const { return steps_; }
  std::vector<PathStep>& steps() { return steps_; }
  bool empty() const { return steps_.empty(); }

  // The "length" used to order LIST(P) entries in Algorithm 1: the number of
  // labels on the path.
  size_t Length() const { return steps_.size(); }

  void Append(Axis axis, LabelId label) {
    steps_.push_back(PathStep{axis, label, std::nullopt});
  }
  void Append(PathStep step) { steps_.push_back(std::move(step)); }

  // Conversion to an equivalent single-branch TreePattern whose answer node
  // is the last step.
  TreePattern ToTreePattern() const;

  // "/a//b/*" — requires the dictionary used to intern the labels.
  std::string ToString(const LabelDict& dict) const;

  friend bool operator==(const PathPattern& a, const PathPattern& b) = default;

 private:
  std::vector<PathStep> steps_;
};

struct PathPatternHash {
  size_t operator()(const PathPattern& p) const;
};

// Tokens of the VFILTER input string STR(P) (paper §III-B): '/' is omitted,
// '//' becomes the # token, labels and * are tokens of their own.
inline constexpr int32_t kHashToken = -4;

// STR(P): e.g. /b//f -> {b, #, f}; s//t -> {s, #, t}; /a/*/c -> {a, *, c}.
// (* is encoded as kWildcardLabel.) Written into `out` in place, replacing
// its contents, so a caller can reuse the buffer across paths.
void PathToTokens(const PathPattern& path, std::vector<int32_t>* out);

// The decomposition D(Q) plus the bookkeeping selection needs: which leaf of
// Q produced which (distinct) path pattern.
struct Decomposition {
  std::vector<PathPattern> paths;               // distinct, in first-use order
  std::vector<TreePattern::NodeIndex> leaves;   // LEAF(Q)
  std::vector<int> leaf_to_path;                // leaves[i] -> index in paths
};

// Decomposes Q into D(Q). Duplicate root-to-leaf paths are merged.
Decomposition Decompose(const TreePattern& q);

// The root-to-`n` path of `q` as a PathPattern (n need not be a leaf).
PathPattern PathTo(const TreePattern& q, TreePattern::NodeIndex n);

}  // namespace xvr

#endif  // XVR_PATTERN_PATH_PATTERN_H_
