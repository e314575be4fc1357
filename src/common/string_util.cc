#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <system_error>

namespace xvr {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool ParseDecimalU64(std::string_view s, uint64_t* value) {
  // from_chars takes no sign, space or base prefix for an unsigned type and
  // reports overflow; the whole of `s` must be digits.
  uint64_t parsed = 0;
  const char* end = s.data() + s.size();
  const auto [stop, error] = std::from_chars(s.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    return false;
  }
  *value = parsed;
  return true;
}

bool ParseBoundedId(std::string_view s, int64_t limit, int32_t* id) {
  uint64_t value = 0;
  if (s.size() > 10 || !ParseDecimalU64(s, &value) || value > INT32_MAX ||
      static_cast<int64_t>(value) >= limit) {
    return false;
  }
  *id = static_cast<int32_t>(value);
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  } else if (bytes < 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f MB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace xvr
