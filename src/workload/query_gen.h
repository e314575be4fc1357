#ifndef XVR_WORKLOAD_QUERY_GEN_H_
#define XVR_WORKLOAD_QUERY_GEN_H_

// YFilter-style XPath query generator (the paper generates its views and
// queries with YFilter's generator; §VI). Random walks over the document's
// schema graph emit queries in the /, //, *, [] fragment, controlled by the
// same knobs the paper reports: max_depth, prob_wild, prob_desc (the paper's
// prob_dedge), num_pred and num_nestedpath.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "pattern/tree_pattern.h"
#include "xml/xml_tree.h"

namespace xvr {

struct QueryGenOptions {
  int max_depth = 4;        // maximum number of steps on the main path
  double prob_wild = 0.2;   // probability a step becomes '*'
  double prob_desc = 0.2;   // probability an edge becomes '//'
  int num_pred = 1;         // branch predicates attached to the query
  int num_nestedpath = 1;   // maximum steps inside each predicate path
  // Probability of attaching an attribute comparison ([@a = "v"]) to a
  // non-wildcard step, drawing attribute names and values observed in the
  // document. 0 matches the paper's structural-only workloads; tests of
  // attribute predicates set it.
  double prob_attr = 0.0;
};

class QueryGenerator {
 public:
  // The generator walks the schema observed in `doc` (which must outlive
  // the generator).
  QueryGenerator(const XmlTree& doc, QueryGenOptions options);

  // One random query. Follows real schema paths, so most queries have
  // non-empty results, but emptiness is not guaranteed.
  TreePattern Generate(Rng* rng) const;

  // Up to `count` distinct queries, each accepted by `accept` (e.g. a
  // positivity / materializability test). Gives up after `max_attempts`
  // tries overall.
  std::vector<TreePattern> GenerateAccepted(
      size_t count, Rng* rng,
      const std::function<bool(const TreePattern&)>& accept,
      size_t max_attempts = 0) const;

 private:
  // Random proper descendant label of `from` (schema-wise), at least one
  // level down; kInvalidLabel when none.
  LabelId RandomDescendant(LabelId from, Rng* rng) const;
  LabelId RandomChild(LabelId from, Rng* rng) const;

  // Appends a random downward walk of up to `steps` steps starting under
  // `label`, attaching to pattern node `at`. Returns false if no step could
  // be generated.
  bool AppendWalk(TreePattern* pattern, TreePattern::NodeIndex at,
                  LabelId label, int steps, bool allow_wildcards,
                  Rng* rng) const;

  // Maybe attaches an attribute comparison to `node` (labelled `label`).
  void MaybeAttachAttribute(TreePattern* pattern, TreePattern::NodeIndex node,
                            LabelId label, Rng* rng) const;

  const XmlTree& doc_;
  QueryGenOptions options_;
  std::unordered_map<LabelId, std::vector<LabelId>> children_;
  std::unordered_map<LabelId, std::vector<LabelId>> descendants_;
  // Per label: observed attribute names with sampled values.
  struct AttrInfo {
    std::string name;
    std::vector<std::string> values;
  };
  std::unordered_map<LabelId, std::vector<AttrInfo>> attributes_;
  LabelId root_label_ = kInvalidLabel;
};

}  // namespace xvr

#endif  // XVR_WORKLOAD_QUERY_GEN_H_
