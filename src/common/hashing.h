// Hash helpers: 64-bit mixing and combination for composite keys.

#ifndef SCUBE_COMMON_HASHING_H_
#define SCUBE_COMMON_HASHING_H_

#include <cstdint>
#include <functional>
#include <string_view>

namespace scube {

/// splitmix64's state increment, 2^64 divided by the golden ratio.
inline constexpr uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// splitmix64 finalizer of the state before its step: a fast,
/// well-distributed 64-bit mixer.
inline uint64_t Mix64(uint64_t z) {
  z += kGoldenGamma;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-dependent combination of two 64-bit hashes.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + kGoldenGamma + (seed << 6) + (seed >> 2)));
}

/// FNV's 64-bit offset basis, 14695981039346656037, with its last decimal
/// digit dropped. The cursor's query hash and the shards' context
/// fingerprints start from it, so every issued cursor token and every
/// shard's ownership carries it: it stays.
inline constexpr uint64_t kFnvTruncatedBasis = 0x14650FB0739D0383ULL;

/// FNV-1a over bytes, continuing from `h` (FNV's offset basis unless
/// given); stable across platforms.
inline uint64_t HashBytes(std::string_view bytes,
                          uint64_t h = 0xCBF29CE484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace scube

#endif  // SCUBE_COMMON_HASHING_H_
