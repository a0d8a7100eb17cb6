// From-scratch implementation of the XXH64 hash algorithm (the hash the
// paper's system uses for sketch bucket placement; see Collet, xxHash).
// Non-cryptographic, very fast, well-distributed 64-bit output.
#ifndef GZ_UTIL_XXHASH_H_
#define GZ_UTIL_XXHASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace gz {

// XXH64 round constants. Public because the SIMD lane implementations
// (util/xxhash_lanes.h) replicate the word-hash dataflow with vector
// arithmetic and must use bit-identical primes.
inline constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

// Hashes an arbitrary byte buffer with the XXH64 algorithm.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed);

// Hashes a single 64-bit value. This is the hot path for sketch updates:
// a specialized fixed-length variant of XXH64 (identical output to
// XxHash64(&value, 8, seed)). Equal to
// XxHash64WordFinish(XxHash64WordPremix(value), seed).
uint64_t XxHash64Word(uint64_t value, uint64_t seed);

// XXH64's final avalanche (shared by the buffer and word variants).
inline uint64_t XxHash64Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

// The word hash split at its seed dependence. Premix is XXH64's
// Round(0, value), which never sees the seed; a caller hashing one
// value under many seeds (a sketch update: cols + 1 hashes per round)
// computes it once and pays only Finish's 3 multiplies per seed
// instead of the full 5.
inline uint64_t XxHash64WordPremix(uint64_t value) {
  return std::rotl(value * kXxPrime2, 31) * kXxPrime1;
}

inline uint64_t XxHash64WordFinish(uint64_t premix, uint64_t seed) {
  const uint64_t h = (seed + kXxPrime5 + 8) ^ premix;
  return XxHash64Avalanche(std::rotl(h, 27) * kXxPrime1 + kXxPrime4);
}

}  // namespace gz

#endif  // GZ_UTIL_XXHASH_H_
