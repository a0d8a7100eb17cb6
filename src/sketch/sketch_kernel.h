// Batched sketch-update kernel with runtime SIMD dispatch.
//
// The ingest hot loop is sketch-bound: every index a node sketch
// absorbs costs (cols + 1) hashes in each of its rounds plus a short
// XOR scatter into the bucket rows. One entry, NodeSketchUpdateBatch,
// applies a whole span of indices to every round of one node sketch
// (a CubeSketch is the one-round case), so there is one copy of the
// update math. It amortizes three ways:
//
//  1. Premix once per index. XxHash64Word splits into a seed-free
//     premix (XXH64's Round(0, value), 2 multiplies) and a seeded
//     finish (3 multiplies). The span is walked in stack chunks of
//     kSketchKernelChunk indices; each chunk is premixed once, and
//     every round, column and checksum hash finishes from that premix.
//     At the default 21 rounds x 15 hashes this removes 2 of the 5
//     multiplies from 315 hashes per index.
//
//  2. Hashes in lanes: 4 (AVX2) or 8 (AVX-512) indices per lane group
//     get their placement hash and checksum in SIMD.
//
//  3. A scatter without data-dependent branches. Bucket row r of a
//     column receives the XOR of every index whose depth (trailing
//     zeros of the placement hash, capped at rows - 1) is >= r.
//     - AVX-512 keeps rows below kSketchKernelRegisterRows in zmm
//       accumulators: row 0 XORs every lane, row r XORs under the
//       mask depth >= r. Lanes deeper than that (1 in 16 for 4
//       register rows) are spilled without a branch: a
//       maskz_compress of the lane group stored at a popcount-advanced
//       offset in a chunk-sized stack buffer. After each chunk one
//       scalar pass XORs the spill into a per-row difference array and
//       a suffix sweep folds it into the deep rows.
//     - AVX2 computes the depths in SIMD, stores the lanes and XORs
//       each into diff[depth], then runs the same suffix sweep over
//       all rows.
//     Depths are geometric draws, so any branch on them (a per-row
//     loop, or a per-group "any lane deep?" test) mispredicts on fresh
//     data; a benchmark that replays one batch lets the predictor learn
//     it and hides that cost. The AVX-512 path therefore branches only
//     on counts, never on hash values.
//
// Every kernel is bitwise-identical to the scalar path: same hash
// function, same bucket algebra; only the evaluation order of XORs
// differs, and XOR commutes. The kernel is chosen once at startup from
// CPUID, overridable with GZ_SKETCH_KERNEL={scalar,avx2,avx512,auto}
// so conformance and chaos suites can pin cross-kernel equivalence.
// Dispatch is runtime-only (target-attributed functions, no global
// -mavx2), the same pattern as util/crc32c.cc: the binary still runs
// on any x86-64, and non-x86 builds compile the scalar path alone.
// Chunk, spill and difference buffers live on the kernel's stack: the
// kernel allocates nothing and adds no per-sketch memory.
#ifndef GZ_SKETCH_SKETCH_KERNEL_H_
#define GZ_SKETCH_SKETCH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace gz {

// Ordered by width so "best supported" is a max and a fallback from an
// unsupported request is a min.
enum class SketchKernel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Stable lowercase name ("scalar", "avx2", "avx512").
const char* SketchKernelName(SketchKernel kernel);

// True if this CPU can execute `kernel` (kScalar is always true).
bool SketchKernelSupported(SketchKernel kernel);

// Widest kernel this CPU supports.
SketchKernel BestSupportedSketchKernel();

// Parses "scalar" / "avx2" / "avx512" / "auto" ("auto" resolves to
// BestSupportedSketchKernel()). Returns false on any other string.
// Note: parsing does not check CPU support; resolution does.
bool ParseSketchKernelName(const char* name, SketchKernel* out);

// The kernel every sketch update goes through. Resolved once from
// GZ_SKETCH_KERNEL (default "auto") capped to CPU support; an unknown
// value or an unsupported request falls back (with one stderr warning)
// to the widest supported kernel at or below the request.
SketchKernel ActiveSketchKernel();

// Overrides ActiveSketchKernel() for the rest of the process (benches
// sweeping kernels, tests pinning cross-kernel equivalence). The kernel
// must be supported on this CPU.
void ForceSketchKernel(SketchKernel kernel);

// Indices per premixed chunk (see the top of this file).
inline constexpr size_t kSketchKernelChunk = 256;

// Chunks of fewer indices run the scalar round under every kernel. A
// SIMD round pays a fixed cost per call (zeroing the register rows,
// the lane reductions and the deep-row sweep in every column) that a
// near-empty node gutter cannot amortize. bench_sketch_kernel at the
// kron12 geometry (4096 nodes, 21 rounds, 24 rows; GZ_BENCH_SK_BATCH
// 1..64 on a 4-vCPU AVX-512 host) puts the crossover between 3 and 4
// indices per node batch: scalar ~2.9/5.5/9.9/13.5 us at 1/2/3/4
// indices against ~10-12 us for AVX-512 and ~8-17 us for AVX2 at each
// of those counts, after which the SIMD rounds pull ahead (8 indices:
// ~10 us AVX-512, ~21 us scalar).
inline constexpr size_t kSketchKernelMinSimdChunk = 4;

// Bucket rows the AVX-512 kernel accumulates in registers; deeper lanes
// go through the spill buffer.
inline constexpr int kSketchKernelRegisterRows = 4;

// One CubeSketch's seeds and bucket storage, borrowed from the sketch.
struct CubeSketchBuckets {
  const uint64_t* col_seeds = nullptr;    // [cols] placement-hash seeds.
  const uint64_t* gamma_seeds = nullptr;  // [cols + 1]; last = det bucket.
  uint64_t* alphas = nullptr;             // [cols * rows], column-major.
  uint32_t* gammas = nullptr;             // [cols * rows], column-major.
  uint64_t* det_alpha = nullptr;
  uint32_t* det_gamma = nullptr;
};

// A span of indices for every round of one node sketch. All rounds
// share the geometry (cols, rows) and differ only in seeds and buckets.
// `indices` are raw vector indices already validated < vector_len by
// the caller (the span-level bounds check hoisted out of the kernel).
struct NodeSketchKernelArgs {
  const uint64_t* indices = nullptr;
  size_t count = 0;
  int cols = 0;
  int rows = 0;
  const CubeSketchBuckets* rounds = nullptr;  // [num_rounds].
  int num_rounds = 0;
};

// Applies the span to every round's buckets with the given kernel,
// which must be supported on this CPU. Counts of zero are fine.
void NodeSketchUpdateBatch(SketchKernel kernel,
                           const NodeSketchKernelArgs& args);

// out[i] = XxHash64Word(values[i], seed), vectorized per `kernel`.
// The reusable lane-hash entry point for batch workloads beyond the
// cube sketch (count-min rows, heavy hitters). Kernel must be
// supported on this CPU.
void XxHash64WordBatch(SketchKernel kernel, const uint64_t* values,
                       size_t count, uint64_t seed, uint64_t* out);

}  // namespace gz

#endif  // GZ_SKETCH_SKETCH_KERNEL_H_
