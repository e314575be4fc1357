#ifndef XVR_COMMON_HASH_H_
#define XVR_COMMON_HASH_H_

// FNV-1a, the checksum every persisted image trails (KvStore file images
// and catalog WAL records). Not cryptographic — it detects truncation and
// bit rot, not adversaries.

#include <cstdint>
#include <string_view>

namespace xvr {

inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

inline uint64_t Fnv1a(std::string_view data, uint64_t h = kFnv1aOffset) {
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace xvr

#endif  // XVR_COMMON_HASH_H_
