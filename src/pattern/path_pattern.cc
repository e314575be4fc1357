#include "pattern/path_pattern.h"

#include <unordered_map>

namespace xvr {

TreePattern PathPattern::ToTreePattern() const {
  TreePattern out;
  TreePattern::NodeIndex cur = TreePattern::kNoNode;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (i == 0) {
      cur = out.AddRoot(steps_[0].label, steps_[0].axis);
    } else {
      cur = out.AddChild(cur, steps_[i].axis, steps_[i].label);
    }
    if (steps_[i].pred.has_value()) {
      out.SetValuePredicate(cur, *steps_[i].pred);
    }
  }
  if (cur != TreePattern::kNoNode) {
    out.SetAnswer(cur);
  }
  return out;
}

std::string PathPattern::ToString(const LabelDict& dict) const {
  std::string out;
  for (const PathStep& step : steps_) {
    out += (step.axis == Axis::kChild) ? "/" : "//";
    out += dict.Name(step.label);
    if (step.pred.has_value()) {
      out += "[@";
      out += step.pred->attribute;
      out += "...]";
    }
  }
  return out;
}

size_t PathPatternHash::operator()(const PathPattern& p) const {
  size_t h = 1469598103934665603ULL;
  const auto mix = [&h](size_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const PathStep& s : p.steps()) {
    mix(static_cast<size_t>(static_cast<uint32_t>(s.label)) * 2 +
        static_cast<size_t>(s.axis));
    if (s.pred.has_value()) {
      mix(std::hash<std::string>()(s.pred->attribute));
      mix(static_cast<size_t>(s.pred->op));
      mix(std::hash<std::string>()(s.pred->value));
    }
  }
  return h;
}

void PathToTokens(const PathPattern& path, std::vector<int32_t>* out) {
  out->clear();
  out->reserve(path.steps().size() * 2);
  for (const PathStep& step : path.steps()) {
    if (step.axis == Axis::kDescendant) {
      out->push_back(kHashToken);
    }
    out->push_back(step.label);
  }
}

PathPattern PathTo(const TreePattern& q, TreePattern::NodeIndex n) {
  PathPattern out;
  for (TreePattern::NodeIndex i : q.PathFromRoot(n)) {
    out.Append(PathStep{q.axis(i), q.label(i), q.node(i).value_pred});
  }
  return out;
}

Decomposition Decompose(const TreePattern& q) {
  Decomposition out;
  out.leaves = q.Leaves();
  std::unordered_map<PathPattern, int, PathPatternHash> seen;
  for (TreePattern::NodeIndex leaf : out.leaves) {
    PathPattern path = PathTo(q, leaf);
    auto [it, inserted] =
        seen.emplace(path, static_cast<int>(out.paths.size()));
    if (inserted) {
      out.paths.push_back(std::move(path));
    }
    out.leaf_to_path.push_back(it->second);
  }
  return out;
}

}  // namespace xvr
