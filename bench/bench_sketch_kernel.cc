// Sketch-kernel microbench at the ingest geometry: per kernel (scalar
// vs AVX2 vs AVX-512), the ingest-shaped NodeSketch row (one node batch
// through every round, what a Graph Worker's delta sketch does), the
// one-round CubeSketch row, and raw lane-hash throughput. Emits one
// JSON object so BENCH_*.json trajectories can track the kernel across
// builds.
//
// The geometry is the workload's, not a synthetic one: 4096 nodes
// (the kron12 streams) with the default cols and rounds, and node
// batches of one leaf gutter (GraphZeppelin::LeafGutterUpdates of the
// default config: 2661 indices at 4096 nodes). The timed loops rotate
// over many distinct random batches: replaying one batch lets the
// branch predictor learn its bucket depths, which hides exactly the
// mispredict cost a depth-dependent scatter pays on fresh data.
//
// Every SIMD result is GZ_CHECK'd bitwise-identical to the scalar
// sketch fed the same batches before its timing is reported: a wrong
// fast kernel must never publish a number.
//
// Env knobs: GZ_BENCH_SK_BATCH (default: the leaf-gutter capacity),
// GZ_BENCH_SK_ITERS (cube-row batches per kernel, default 400; the node
// row applies ITERS / 4, at least one full rotation of the
// kNumBatches batches).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_zeppelin.h"
#include "sketch/cube_sketch.h"
#include "sketch/node_sketch.h"
#include "sketch/sketch_kernel.h"
#include "util/random.h"
#include "util/xxhash.h"

namespace {

// Distinct random batches the timed loops rotate over.
constexpr int kNumBatches = 64;

std::vector<uint8_t> Bytes(const gz::NodeSketch& s) {
  std::vector<uint8_t> out(s.SerializedSize());
  s.SerializeTo(out.data());
  return out;
}

}  // namespace

int main() {
  using namespace gz;
  GraphZeppelinConfig config;
  config.num_nodes = 4096;
  const size_t batch = bench::GetEnvInt(
      "GZ_BENCH_SK_BATCH",
      static_cast<int>(GraphZeppelin::LeafGutterUpdates(config)));
  const int iters = std::max(1, bench::GetEnvInt("GZ_BENCH_SK_ITERS", 400));
  const int node_iters = std::max(kNumBatches, iters / 4);
  const uint64_t vector_len = NumPossibleEdges(config.num_nodes);
  const uint64_t seed = 42;

  std::vector<SketchKernel> kernels = {SketchKernel::kScalar};
  if (SketchKernelSupported(SketchKernel::kAvx2)) {
    kernels.push_back(SketchKernel::kAvx2);
  }
  if (SketchKernelSupported(SketchKernel::kAvx512)) {
    kernels.push_back(SketchKernel::kAvx512);
  }

  // Distinct random edge-index batches; batch `it % kNumBatches` is the
  // it-th one applied, under every kernel alike.
  SplitMix64 rng(7);
  std::vector<std::vector<uint64_t>> batches(kNumBatches);
  for (std::vector<uint64_t>& b : batches) {
    b.resize(batch);
    for (uint64_t& idx : b) idx = rng.NextBelow(vector_len);
  }
  auto batch_at = [&](int it) { return batches[it % kNumBatches].data(); };

  // One round's geometry for the cube row: round 0 of the node sketch.
  NodeSketchParams np;
  np.num_nodes = config.num_nodes;
  np.seed = seed;
  np.cols = config.cols;
  np.rounds = config.rounds;
  const CubeSketchParams cp = NodeSketch(np).subsketch(0).params();

  struct Row {
    SketchKernel kernel;
    double cube_updates_per_sec = 0;
    double node_updates_per_sec = 0;
    double hash_mhashes_per_sec = 0;
  };
  std::vector<Row> rows;
  CubeSketch cube_reference(cp);
  std::vector<uint8_t> node_reference;
  std::vector<uint64_t> hash_out(batch);

  for (SketchKernel k : kernels) {
    Row row;
    row.kernel = k;

    // Ingest-shaped (the headline number): one delta NodeSketch, all
    // rounds, through the forced kernel, as a Graph Worker applies it.
    ForceSketchKernel(k);
    NodeSketch node(np);
    WallTimer node_timer;
    for (int it = 0; it < node_iters; ++it) {
      node.UpdateBatch(batch_at(it), batch);
    }
    const double node_s = std::max(node_timer.Seconds(), 1e-9);
    row.node_updates_per_sec =
        static_cast<double>(batch) * node_iters / node_s;
    if (k == SketchKernel::kScalar) {
      node_reference = Bytes(node);
    } else {
      GZ_CHECK_MSG(Bytes(node) == node_reference,
                   "node kernel diverged from scalar; refusing to report");
    }

    // One-round CubeSketch update throughput.
    CubeSketch sketch(cp);
    WallTimer cube_timer;
    for (int it = 0; it < iters; ++it) {
      sketch.UpdateBatchWithKernel(k, batch_at(it), batch);
    }
    const double cube_s = std::max(cube_timer.Seconds(), 1e-9);
    row.cube_updates_per_sec = static_cast<double>(batch) * iters / cube_s;
    if (k == SketchKernel::kScalar) {
      cube_reference = sketch;
    } else {
      GZ_CHECK_MSG(sketch == cube_reference,
                   "kernel diverged from scalar; refusing to report timing");
    }

    // Raw per-column hash throughput (millions of XxHash64Word/s).
    WallTimer hash_timer;
    for (int it = 0; it < iters; ++it) {
      XxHash64WordBatch(k, batch_at(it), batch, seed + it, hash_out.data());
    }
    const double hash_s = std::max(hash_timer.Seconds(), 1e-9);
    row.hash_mhashes_per_sec =
        static_cast<double>(batch) * iters / hash_s / 1e6;

    rows.push_back(row);
  }
  ForceSketchKernel(BestSupportedSketchKernel());

  const Row& scalar = rows.front();
  const Row* best = &rows.front();
  for (const Row& r : rows) {
    if (r.node_updates_per_sec > best->node_updates_per_sec) best = &r;
  }

  std::printf("{\n  \"bench\": \"sketch_kernel\",\n");
  std::printf("  \"num_nodes\": %llu, \"vector_len\": %llu, \"cols\": %d, "
              "\"rows\": %d, \"rounds\": %d, \"batch\": %zu, "
              "\"distinct_batches\": %d, \"iters\": %d, "
              "\"node_iters\": %d,\n",
              static_cast<unsigned long long>(config.num_nodes),
              static_cast<unsigned long long>(vector_len), cp.cols,
              CubeSketch(cp).rows(), NodeSketch(np).rounds(), batch,
              kNumBatches, iters, node_iters);
  std::printf("  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("    {\"kernel\": \"%s\", \"node_updates_per_sec\": %.0f, "
                "\"node_ns_per_toggle\": %.1f, "
                "\"cube_updates_per_sec\": %.0f, "
                "\"hash_mhashes_per_sec\": %.1f, "
                "\"node_speedup_vs_scalar\": %.3f}%s\n",
                SketchKernelName(r.kernel), r.node_updates_per_sec,
                1e9 / r.node_updates_per_sec, r.cube_updates_per_sec,
                r.hash_mhashes_per_sec,
                r.node_updates_per_sec / scalar.node_updates_per_sec,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"best_kernel\": \"%s\", \"best_speedup_vs_scalar\": %.3f\n",
              SketchKernelName(best->kernel),
              best->node_updates_per_sec / scalar.node_updates_per_sec);
  std::printf("}\n");
  return 0;
}
