#ifndef XVR_XML_DEWEY_H_
#define XVR_XML_DEWEY_H_

// Extended Dewey codes (Lu et al., "From Region Encoding to Extended Dewey",
// the paper's reference [22]).
//
// A code is a sequence of integers, one per ancestor-or-self step from the
// document root. Unlike plain Dewey, the component values are chosen modulo
// the number of distinct child labels of the parent's label, so that the
// label path of a node can be recovered from the code alone with a finite
// state transducer (see fst.h) — this is what lets the rewriter join view
// fragments without touching base data (paper §V, Example 5.1).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace xvr {

class DeweyCode {
 public:
  DeweyCode() = default;
  explicit DeweyCode(std::vector<uint32_t> components)
      : components_(std::move(components)) {}

  const std::vector<uint32_t>& components() const { return components_; }
  size_t depth() const { return components_.size(); }
  bool empty() const { return components_.empty(); }
  uint32_t at(size_t i) const { return components_[i]; }

  void Append(uint32_t component) { components_.push_back(component); }

  // Code of the parent node; the root's parent is the empty code.
  DeweyCode Parent() const;

  // First `len` components.
  DeweyCode Prefix(size_t len) const;

  // True if this code is a (not necessarily proper) prefix of `other`,
  // i.e., this node is an ancestor-or-self of `other`'s node.
  bool IsPrefixOf(const DeweyCode& other) const;

  // "0.8.6" (paper's notation); "" for the empty code.
  std::string ToString() const;
  // Appends ToString()'s text to *out.
  void AppendTo(std::string* out) const;

  // Parses "0.8.6". Returns false on malformed input.
  [[nodiscard]] static bool FromString(const std::string& text, DeweyCode* out);

  // Document order: component-wise, prefix sorts before its extensions.
  friend bool operator<(const DeweyCode& a, const DeweyCode& b) {
    return a.components_ < b.components_;
  }
  friend bool operator==(const DeweyCode& a, const DeweyCode& b) {
    return a.components_ == b.components_;
  }
  friend bool operator!=(const DeweyCode& a, const DeweyCode& b) {
    return !(a == b);
  }

 private:
  std::vector<uint32_t> components_;
};

// The same order and prefix over bare components, as a fragment stores its
// root code (storage/fragment.h).
inline bool CodeLess(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Number of leading components two codes share (depth of the lowest common
// ancestor-or-self).
size_t CommonPrefixLength(std::span<const uint32_t> a,
                          std::span<const uint32_t> b);

// Hash support for keying fragment stores and join tables by code.
struct DeweyCodeHash {
  size_t operator()(const DeweyCode& code) const;
};

}  // namespace xvr

#endif  // XVR_XML_DEWEY_H_
