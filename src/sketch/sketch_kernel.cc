#include "sketch/sketch_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstdio>
#include <cstring>

#include "util/check.h"
#include "util/xxhash.h"
#include "util/xxhash_lanes.h"

namespace gz {
namespace {

// rows = bit_width(vector_len - 1) + 1 <= 65.
constexpr int kMaxRows = 65;

// One premixed chunk of the span: indices[i] and premix[i] =
// XxHash64WordPremix(indices[i] + 1) for i < count.
struct Chunk {
  const uint64_t* indices;
  const uint64_t* premix;
  size_t count;
};

// Applies a chunk to one round's buckets (all but the det alpha, which
// RunChunks folds once for every round).
using RoundChunkFn = void (*)(const Chunk& chunk, int cols, int rows,
                              const CubeSketchBuckets& b);

void RoundChunkScalar(const Chunk& ch, int cols, int rows,
                      const CubeSketchBuckets& b);

// Walks the span in stack chunks, premixes each chunk once and hands
// it to `apply` for every round; chunks below kSketchKernelMinSimdChunk
// indices go to the scalar round instead.
void RunChunks(const NodeSketchKernelArgs& a, RoundChunkFn apply) {
  GZ_CHECK(a.rows >= 1 && a.rows <= kMaxRows);
  alignas(64) uint64_t premix[kSketchKernelChunk];
  for (size_t start = 0; start < a.count; start += kSketchKernelChunk) {
    const size_t n = std::min(kSketchKernelChunk, a.count - start);
    const uint64_t* indices = a.indices + start;
    // The det bucket's alpha is the XOR of the encoded indices in every
    // round alike.
    uint64_t det_alpha = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t enc = indices[i] + 1;  // 0 is reserved for "empty".
      det_alpha ^= enc;
      premix[i] = XxHash64WordPremix(enc);
    }
    const Chunk chunk{indices, premix, n};
    for (int r = 0; r < a.num_rounds; ++r) {
      *a.rounds[r].det_alpha ^= det_alpha;
    }
    // Two loops, not a selected pointer, so `apply` stays a direct call
    // once RunChunks is inlined into its dispatch case.
    if (n < kSketchKernelMinSimdChunk) {
      for (int r = 0; r < a.num_rounds; ++r) {
        RoundChunkScalar(chunk, a.cols, a.rows, a.rounds[r]);
      }
    } else {
      for (int r = 0; r < a.num_rounds; ++r) {
        apply(chunk, a.cols, a.rows, a.rounds[r]);
      }
    }
  }
}

// Folds a per-row difference array into bucket rows [first_row, rows):
// row r receives diff[r] ^ ... ^ diff[rows - 1], i.e. the XOR of every
// update whose depth is >= r. Leaves diff[first_row, rows) zeroed for
// the next column. Checksums truncate to 32 bits at the end, which
// commutes with XOR.
inline void FoldDiffRows(int first_row, int rows, uint64_t* diff_alpha,
                         uint64_t* diff_gamma, uint64_t* alpha,
                         uint32_t* gamma) {
  uint64_t acc_alpha = 0;
  uint64_t acc_gamma = 0;
  for (int r = rows - 1; r >= first_row; --r) {
    acc_alpha ^= diff_alpha[r];
    acc_gamma ^= diff_gamma[r];
    diff_alpha[r] = 0;
    diff_gamma[r] = 0;
    alpha[r] ^= acc_alpha;
    gamma[r] ^= static_cast<uint32_t>(acc_gamma);
  }
}

// ---- Scalar reference path -------------------------------------------
//
// This is THE definition of a sketch update; every SIMD kernel below
// must reproduce its bucket writes bit for bit: encoded index
// enc = idx + 1 toggles rows 0..depth of column c, where depth is the
// trailing-zero count of XxHash64Word(enc, col_seeds[c]) capped at
// rows - 1, and each row's gamma takes the 32-bit checksum
// XxHash64Word(enc, gamma_seeds[c]).
inline int BucketDepth(uint64_t h, int rows) {
  const int depth = (h == 0) ? rows - 1 : std::countr_zero(h);
  return depth > rows - 1 ? rows - 1 : depth;
}

inline void UpdateColumnScalar(uint64_t enc, uint64_t premix,
                               uint64_t col_seed, uint64_t gamma_seed,
                               int rows, uint64_t* alpha, uint32_t* gamma) {
  const int depth = BucketDepth(XxHash64WordFinish(premix, col_seed), rows);
  const uint32_t checksum =
      static_cast<uint32_t>(XxHash64WordFinish(premix, gamma_seed));
  for (int r = 0; r <= depth; ++r) {
    alpha[r] ^= enc;
    gamma[r] ^= checksum;
  }
}

void RoundChunkScalar(const Chunk& ch, int cols, int rows,
                      const CubeSketchBuckets& b) {
  uint64_t det_gamma = 0;
  for (size_t i = 0; i < ch.count; ++i) {
    det_gamma ^= XxHash64WordFinish(ch.premix[i], b.gamma_seeds[cols]);
  }
  *b.det_gamma ^= static_cast<uint32_t>(det_gamma);
  for (int c = 0; c < cols; ++c) {
    uint64_t* alpha = b.alphas + static_cast<size_t>(c) * rows;
    uint32_t* gamma = b.gammas + static_cast<size_t>(c) * rows;
    for (size_t i = 0; i < ch.count; ++i) {
      UpdateColumnScalar(ch.indices[i] + 1, ch.premix[i], b.col_seeds[c],
                         b.gamma_seeds[c], rows, alpha, gamma);
    }
  }
}

#if defined(__x86_64__)

// See the matching pragma in util/xxhash_lanes.h: GCC 12 attributes its
// PR 105593 false positive to the function the intrinsics inline into,
// so the kernels need the suppression as well.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// ---- AVX2: lane hashes, difference scatter ---------------------------
//
// Per lane group of 4: the placement hash, checksum and capped depth of
// every lane in SIMD (2 finishes of 3 emulated multiplies each, from
// the chunk's premix). The lanes are then stored and each XORs once
// into diff[depth] (branchless), and one suffix sweep per column folds
// the chunk into the bucket rows. The < 4-index chunk tail runs the
// scalar reference.
GZ_TARGET_AVX2 void RoundChunkAvx2(const Chunk& ch, int cols, int rows,
                                   const CubeSketchBuckets& b) {
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i cap = _mm256_set1_epi64x(rows - 1);
  const size_t main = ch.count & ~static_cast<size_t>(3);

  {
    const uint64_t det_seed = b.gamma_seeds[cols];
    __m256i acc = _mm256_setzero_si256();
    for (size_t i = 0; i < main; i += 4) {
      const __m256i premix =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ch.premix + i));
      acc = _mm256_xor_si256(acc, XxHash64WordFinish4(premix, det_seed));
    }
    alignas(32) uint64_t fold[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(fold), acc);
    uint64_t det_gamma = fold[0] ^ fold[1] ^ fold[2] ^ fold[3];
    for (size_t i = main; i < ch.count; ++i) {
      det_gamma ^= XxHash64WordFinish(ch.premix[i], det_seed);
    }
    *b.det_gamma ^= static_cast<uint32_t>(det_gamma);
  }

  alignas(32) uint64_t enc_lanes[4];
  alignas(32) uint64_t depth_lanes[4];
  alignas(32) uint64_t chk_lanes[4];
  uint64_t diff_alpha[kMaxRows];
  uint64_t diff_gamma[kMaxRows];
  std::fill_n(diff_alpha, rows, 0);
  std::fill_n(diff_gamma, rows, 0);

  for (int c = 0; c < cols; ++c) {
    for (size_t i = 0; i < main; i += 4) {
      const __m256i enc = _mm256_add_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ch.indices + i)),
          one);
      const __m256i premix =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ch.premix + i));
      const __m256i h = XxHash64WordFinish4(premix, b.col_seeds[c]);
      const __m256i chk = XxHash64WordFinish4(premix, b.gamma_seeds[c]);
      const __m256i depth = TrailingZerosCapped4(h, cap);
      _mm256_store_si256(reinterpret_cast<__m256i*>(enc_lanes), enc);
      _mm256_store_si256(reinterpret_cast<__m256i*>(depth_lanes), depth);
      _mm256_store_si256(reinterpret_cast<__m256i*>(chk_lanes), chk);
      for (int lane = 0; lane < 4; ++lane) {
        const uint64_t d = depth_lanes[lane];
        diff_alpha[d] ^= enc_lanes[lane];
        diff_gamma[d] ^= chk_lanes[lane];
      }
    }
    uint64_t* alpha = b.alphas + static_cast<size_t>(c) * rows;
    uint32_t* gamma = b.gammas + static_cast<size_t>(c) * rows;
    FoldDiffRows(0, rows, diff_alpha, diff_gamma, alpha, gamma);
    for (size_t i = main; i < ch.count; ++i) {
      UpdateColumnScalar(ch.indices[i] + 1, ch.premix[i], b.col_seeds[c],
                         b.gamma_seeds[c], rows, alpha, gamma);
    }
  }
}

// ---- AVX-512: register rows, compress spill --------------------------
//
// Per lane group of 8, the two hashes as under AVX2, then a scatter
// with no branch on any hash value:
//  - rows r < kSketchKernelRegisterRows accumulate in zmm registers:
//    row 0 XORs every lane, row r XORs the lanes whose placement hash
//    has at least r trailing zero bits (one vptestnmq against 2^r - 1,
//    so the depth itself is never computed in SIMD; h == 0 passes every
//    test, which is the scalar path's saturated depth);
//  - lanes with at least kSketchKernelRegisterRows trailing zeros are
//    compressed to the front of the vector and stored whole at the
//    spill offset, which advances by their popcount.
// After the chunk, the register rows are XOR-reduced into the buckets
// and one scalar pass turns each spilled hash into its capped depth and
// folds the spill into the deeper rows. The chunk tail is the same code
// under a lane mask.

constexpr int kRegisterRows = kSketchKernelRegisterRows;
static_assert(kRegisterRows >= 1 && kRegisterRows <= 8);

// XOR of the 8 lanes: swap and fold 256-bit halves, 128-bit quarters,
// then 64-bit pairs, and read lane 0. The unmasked shuffles and the
// 128-bit cast pass an undefined source operand that GCC 12 reports as
// a definite -Wuninitialized, so this uses the all-lanes maskz
// shuffles and a vector subscript instead.
GZ_TARGET_AVX512 inline uint64_t XorReduce8(__m512i v) {
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));
  v = _mm512_xor_si512(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));
  v = _mm512_xor_si512(v,
                       _mm512_maskz_shuffle_epi32(0xFFFF, v, _MM_PERM_BADC));
  return static_cast<uint64_t>(v[0]);
}

// Mask of the lanes of the group at `i` that hold indices.
inline __mmask8 GroupLanes(size_t i, size_t count) {
  const size_t rest = count - i;
  return rest >= 8 ? static_cast<__mmask8>(0xFF)
                   : static_cast<__mmask8>((1u << rest) - 1);
}

GZ_TARGET_AVX512 void RoundChunkAvx512(const Chunk& ch, int cols, int rows,
                                       const CubeSketchBuckets& b) {
  const __m512i one = _mm512_set1_epi64(1);

  {
    const uint64_t det_seed = b.gamma_seeds[cols];
    __m512i acc = _mm512_setzero_si512();
    for (size_t i = 0; i < ch.count; i += 8) {
      const __mmask8 lanes = GroupLanes(i, ch.count);
      const __m512i premix = _mm512_maskz_loadu_epi64(lanes, ch.premix + i);
      acc = _mm512_mask_xor_epi64(acc, lanes, acc,
                                  XxHash64WordFinish8(premix, det_seed));
    }
    *b.det_gamma ^= static_cast<uint32_t>(XorReduce8(acc));
  }

  // A lane group stores all 8 lanes at the spill offset, so the buffers
  // carry one group of slack.
  alignas(64) uint64_t spill_enc[kSketchKernelChunk + 8];
  alignas(64) uint64_t spill_chk[kSketchKernelChunk + 8];
  alignas(64) uint64_t spill_hash[kSketchKernelChunk + 8];
  uint64_t diff_alpha[kMaxRows];
  uint64_t diff_gamma[kMaxRows];
  std::fill_n(diff_alpha, rows, 0);
  std::fill_n(diff_gamma, rows, 0);
  // With rows <= kRegisterRows every row is a register row: no spill.
  const __mmask8 spill_lanes = rows > kRegisterRows ? 0xFF : 0;
  const __m512i deep_bits =
      _mm512_set1_epi64((int64_t{1} << kRegisterRows) - 1);

  for (int c = 0; c < cols; ++c) {
    __m512i acc_alpha[kRegisterRows];
    __m512i acc_gamma[kRegisterRows];
#pragma GCC unroll 8
    for (int r = 0; r < kRegisterRows; ++r) {
      acc_alpha[r] = _mm512_setzero_si512();
      acc_gamma[r] = _mm512_setzero_si512();
    }
    size_t spilled = 0;
    for (size_t i = 0; i < ch.count; i += 8) {
      const __mmask8 lanes = GroupLanes(i, ch.count);
      const __m512i enc = _mm512_add_epi64(
          _mm512_maskz_loadu_epi64(lanes, ch.indices + i), one);
      const __m512i premix = _mm512_maskz_loadu_epi64(lanes, ch.premix + i);
      const __m512i h = XxHash64WordFinish8(premix, b.col_seeds[c]);
      const __m512i chk = XxHash64WordFinish8(premix, b.gamma_seeds[c]);
      acc_alpha[0] = _mm512_mask_xor_epi64(acc_alpha[0], lanes, acc_alpha[0],
                                           enc);
      acc_gamma[0] = _mm512_mask_xor_epi64(acc_gamma[0], lanes, acc_gamma[0],
                                           chk);
#pragma GCC unroll 8
      for (int r = 1; r < kRegisterRows; ++r) {
        const __mmask8 in_row = _mm512_mask_testn_epi64_mask(
            lanes, h, _mm512_set1_epi64((int64_t{1} << r) - 1));
        acc_alpha[r] = _mm512_mask_xor_epi64(acc_alpha[r], in_row,
                                             acc_alpha[r], enc);
        acc_gamma[r] = _mm512_mask_xor_epi64(acc_gamma[r], in_row,
                                             acc_gamma[r], chk);
      }
      const __mmask8 deep =
          _mm512_mask_testn_epi64_mask(lanes & spill_lanes, h, deep_bits);
      _mm512_storeu_si512(spill_enc + spilled,
                          _mm512_maskz_compress_epi64(deep, enc));
      _mm512_storeu_si512(spill_chk + spilled,
                          _mm512_maskz_compress_epi64(deep, chk));
      _mm512_storeu_si512(spill_hash + spilled,
                          _mm512_maskz_compress_epi64(deep, h));
      spilled += static_cast<size_t>(
          std::popcount(static_cast<unsigned>(deep)));
    }

    uint64_t* alpha = b.alphas + static_cast<size_t>(c) * rows;
    uint32_t* gamma = b.gammas + static_cast<size_t>(c) * rows;
    for (size_t j = 0; j < spilled; ++j) {
      const int depth = BucketDepth(spill_hash[j], rows);
      diff_alpha[depth] ^= spill_enc[j];
      diff_gamma[depth] ^= spill_chk[j];
    }
    FoldDiffRows(kRegisterRows, rows, diff_alpha, diff_gamma, alpha, gamma);
#pragma GCC unroll 8
    for (int r = 0; r < kRegisterRows; ++r) {
      if (r < rows) {
        alpha[r] ^= XorReduce8(acc_alpha[r]);
        gamma[r] ^= static_cast<uint32_t>(XorReduce8(acc_gamma[r]));
      }
    }
  }
}

// ---- Lane-hash batch entries -----------------------------------------

GZ_TARGET_AVX2 void HashBatchAvx2(const uint64_t* values, size_t count,
                                  uint64_t seed, uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        XxHash64Word4(v, seed));
  }
  for (; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

GZ_TARGET_AVX512 void HashBatchAvx512(const uint64_t* values, size_t count,
                                      uint64_t seed, uint64_t* out) {
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(values + i));
    _mm512_storeu_si512(reinterpret_cast<void*>(out + i),
                        XxHash64Word8(v, seed));
  }
  for (; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

#pragma GCC diagnostic pop

#endif  // __x86_64__

// ---- Dispatch --------------------------------------------------------

SketchKernel ResolveFromEnv() {
  const SketchKernel best = BestSupportedSketchKernel();
  const char* value = std::getenv("GZ_SKETCH_KERNEL");
  if (value == nullptr || *value == '\0') return best;
  SketchKernel requested;
  if (!ParseSketchKernelName(value, &requested)) {
    std::fprintf(stderr,
                 "gz: unknown GZ_SKETCH_KERNEL value \"%s\" "
                 "(want scalar|avx2|avx512|auto); using %s\n",
                 value, SketchKernelName(best));
    return best;
  }
  if (!SketchKernelSupported(requested)) {
    // Widest supported kernel at or below the request; all kernels are
    // bitwise-identical, so the fallback only changes speed.
    const SketchKernel fallback =
        static_cast<int>(best) < static_cast<int>(requested) ? best
                                                             : SketchKernel::kScalar;
    std::fprintf(stderr,
                 "gz: GZ_SKETCH_KERNEL=%s not supported on this CPU; "
                 "using %s\n",
                 SketchKernelName(requested), SketchKernelName(fallback));
    return fallback;
  }
  return requested;
}

// -1 = no override; otherwise the forced kernel's enum value.
std::atomic<int> g_forced_kernel{-1};

}  // namespace

const char* SketchKernelName(SketchKernel kernel) {
  switch (kernel) {
    case SketchKernel::kScalar:
      return "scalar";
    case SketchKernel::kAvx2:
      return "avx2";
    case SketchKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SketchKernelSupported(SketchKernel kernel) {
  switch (kernel) {
    case SketchKernel::kScalar:
      return true;
    case SketchKernel::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SketchKernel::kAvx512:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512cd") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
  }
  return false;
}

SketchKernel BestSupportedSketchKernel() {
  if (SketchKernelSupported(SketchKernel::kAvx512)) return SketchKernel::kAvx512;
  if (SketchKernelSupported(SketchKernel::kAvx2)) return SketchKernel::kAvx2;
  return SketchKernel::kScalar;
}

bool ParseSketchKernelName(const char* name, SketchKernel* out) {
  GZ_CHECK(name != nullptr && out != nullptr);
  if (std::strcmp(name, "scalar") == 0) {
    *out = SketchKernel::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = SketchKernel::kAvx2;
  } else if (std::strcmp(name, "avx512") == 0) {
    *out = SketchKernel::kAvx512;
  } else if (std::strcmp(name, "auto") == 0) {
    *out = BestSupportedSketchKernel();
  } else {
    return false;
  }
  return true;
}

SketchKernel ActiveSketchKernel() {
  // Env resolution happens once (thread-safe static init); the forced
  // override wins so benches/tests can sweep kernels in-process.
  static const SketchKernel from_env = ResolveFromEnv();
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  return forced >= 0 ? static_cast<SketchKernel>(forced) : from_env;
}

void ForceSketchKernel(SketchKernel kernel) {
  GZ_CHECK_MSG(SketchKernelSupported(kernel),
               "forcing a sketch kernel this CPU cannot run");
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void NodeSketchUpdateBatch(SketchKernel kernel,
                           const NodeSketchKernelArgs& args) {
  switch (kernel) {
#if defined(__x86_64__)
    case SketchKernel::kAvx2:
      GZ_CHECK(SketchKernelSupported(kernel));
      RunChunks(args, RoundChunkAvx2);
      return;
    case SketchKernel::kAvx512:
      GZ_CHECK(SketchKernelSupported(kernel));
      RunChunks(args, RoundChunkAvx512);
      return;
#else
    case SketchKernel::kAvx2:
    case SketchKernel::kAvx512:
      GZ_CHECK_MSG(false, "SIMD sketch kernels require x86-64");
      return;
#endif
    case SketchKernel::kScalar:
      break;
  }
  RunChunks(args, RoundChunkScalar);
}

void XxHash64WordBatch(SketchKernel kernel, const uint64_t* values,
                       size_t count, uint64_t seed, uint64_t* out) {
  switch (kernel) {
#if defined(__x86_64__)
    case SketchKernel::kAvx2:
      GZ_CHECK(SketchKernelSupported(kernel));
      HashBatchAvx2(values, count, seed, out);
      return;
    case SketchKernel::kAvx512:
      GZ_CHECK(SketchKernelSupported(kernel));
      HashBatchAvx512(values, count, seed, out);
      return;
#else
    case SketchKernel::kAvx2:
    case SketchKernel::kAvx512:
      GZ_CHECK_MSG(false, "SIMD sketch kernels require x86-64");
      return;
#endif
    case SketchKernel::kScalar:
      break;
  }
  for (size_t i = 0; i < count; ++i) out[i] = XxHash64Word(values[i], seed);
}

}  // namespace gz
