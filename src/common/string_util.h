#ifndef XVR_COMMON_STRING_UTIL_H_
#define XVR_COMMON_STRING_UTIL_H_

// Small string helpers shared across modules.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xvr {

// Splits `input` on `sep`; empty pieces are kept ("a..b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view input, char sep);

// Joins pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// Parses `s` as a u64: one or more decimal digits, no sign or space, no
// overflow. Returns false, leaving `*value` alone, when `s` is not one.
[[nodiscard]] bool ParseDecimalU64(std::string_view s, uint64_t* value);

// Parses `s` as an id in [0, limit): one to ten decimal digits, no sign or
// space. Returns false, leaving `*id` alone, when `s` is not one.
[[nodiscard]] bool ParseBoundedId(std::string_view s, int64_t limit,
                                  int32_t* id);

// Formats a byte count as "12.3 KB" / "4.5 MB".
std::string HumanBytes(size_t bytes);

}  // namespace xvr

#endif  // XVR_COMMON_STRING_UTIL_H_
