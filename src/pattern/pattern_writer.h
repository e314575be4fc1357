#ifndef XVR_PATTERN_PATTERN_WRITER_H_
#define XVR_PATTERN_PATTERN_WRITER_H_

// Renders a TreePattern back to XPath syntax. Round-trips with ParseXPath
// up to predicate order (compare CanonicalKey for order-free equality).

#include <string>

#include "pattern/tree_pattern.h"
#include "xml/label_dict.h"

namespace xvr {

// "/a//b[c/d][@id = "7"]/e". If the answer node is not the last main-path
// step (possible for programmatically built patterns), the main path is the
// root-to-answer path and everything else prints as predicates.
std::string PatternToXPath(const TreePattern& pattern, const LabelDict& dict);

}  // namespace xvr

#endif  // XVR_PATTERN_PATTERN_WRITER_H_
