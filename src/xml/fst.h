#ifndef XVR_XML_FST_H_
#define XVR_XML_FST_H_

// The finite state transducer of the paper (Figure 3): decodes an extended
// Dewey code into the label path of the node, using only the document schema
// (for each label, the ordered list of distinct child labels).
//
// Example 2.1 of the paper: code 0.8.6 with schema b -> {t,a,s}, s -> {t,p,s,f}
// decodes as b/s/s because 8 mod 3 = 2 picks `s` under `b`, and 6 mod 4 = 2
// picks `s` under `s`.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "xml/label_dict.h"

namespace xvr {

class XmlTree;

class Fst {
 public:
  // Builds the transducer from the schema observed in `tree`: child-label
  // lists are ordered by first appearance (deterministic for a given tree).
  static Fst Build(const XmlTree& tree);

  // Distinct child labels of `parent` in first-appearance order. `parent` ==
  // kInvalidLabel denotes the virtual super-root (its children are the
  // possible document root labels). Labels the schema never saw as a parent
  // (including ones interned after Build) have none.
  const std::vector<LabelId>& ChildLabels(LabelId parent) const;

  // Index of `child` in ChildLabels(parent), or -1 if not in the schema.
  int ChildIndex(LabelId parent, LabelId child) const;

  size_t ChildCount(LabelId parent) const { return ChildLabels(parent).size(); }

  // Decodes `code` into the root-to-node label path. The first `keep`
  // entries of *path must already be the decode of the first `keep`
  // components (e.g. the previous code's path, keep = the codes' common
  // prefix length); only the rest is decoded. Returns false if the code is
  // not derivable from this schema.
  [[nodiscard]] bool Decode(std::span<const uint32_t> code,
                            std::vector<LabelId>* path,
                            size_t keep = 0) const;

 private:
  // children_[parent + 1] = ordered child labels of `parent`; slot 0 is the
  // super-root (kInvalidLabel == -1).
  std::vector<std::vector<LabelId>> children_;
};

}  // namespace xvr

#endif  // XVR_XML_FST_H_
