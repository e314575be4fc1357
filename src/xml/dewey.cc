#include "xml/dewey.h"

#include <charconv>
#include <cstdlib>

namespace xvr {

DeweyCode DeweyCode::Parent() const {
  if (components_.empty()) {
    return DeweyCode();
  }
  return Prefix(components_.size() - 1);
}

DeweyCode DeweyCode::Prefix(size_t len) const {
  if (len >= components_.size()) {
    return *this;
  }
  return DeweyCode(std::vector<uint32_t>(components_.begin(),
                                         components_.begin() +
                                             static_cast<long>(len)));
}

bool DeweyCode::IsPrefixOf(const DeweyCode& other) const {
  if (components_.size() > other.components_.size()) {
    return false;
  }
  for (size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] != other.components_[i]) {
      return false;
    }
  }
  return true;
}

size_t CommonPrefixLength(std::span<const uint32_t> a,
                          std::span<const uint32_t> b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

std::string DeweyCode::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void DeweyCode::AppendTo(std::string* out) const {
  char buf[10];  // the digits of the largest uint32_t
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out->push_back('.');
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), components_[i]);
    out->append(buf, r.ptr);
  }
}

bool DeweyCode::FromString(const std::string& text, DeweyCode* out) {
  out->components_.clear();
  if (text.empty()) {
    return true;
  }
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t dot = text.find('.', pos);
    if (dot == std::string::npos) dot = text.size();
    if (dot == pos) return false;  // empty component
    uint32_t value = 0;
    for (size_t i = pos; i < dot; ++i) {
      const char c = text[i];
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint32_t>(c - '0');
    }
    out->components_.push_back(value);
    if (dot == text.size()) break;
    pos = dot + 1;
  }
  return true;
}

size_t DeweyCodeHash::operator()(const DeweyCode& code) const {
  // FNV-1a over the components.
  size_t h = 1469598103934665603ULL;
  for (uint32_t c : code.components()) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace xvr
