// Single-layer measurements for traced runs: each layer's public entry
// point driven alone, at the calling workload's geometry and with its
// own inputs, so a layer's ceiling can be set beside the end-to-end
// cost it contributes to. Every figure is the median of three
// repetitions.
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "buffer/gutter_tree.h"
#include "buffer/leaf_gutters.h"
#include "buffer/update_batch.h"
#include "buffer/work_queue.h"
#include "common.h"
#include "distributed/shard_protocol.h"
#include "sketch/node_sketch.h"
#include "trace.h"
#include "util/crc32c.h"
#include "workloads/count_min.h"

namespace gzb {
namespace {

constexpr int kReps = 3;

// Median wall seconds of `body` over kReps runs; `prepare` runs
// untimed before each.
double TimeMedian(const std::function<void()>& prepare,
                  const std::function<void()>& body) {
  std::vector<double> s;
  for (int r = 0; r < kReps; ++r) {
    if (prepare) prepare();
    const int64_t t = NowNs();
    body();
    s.push_back((NowNs() - t) * 1e-9);
  }
  return Median(s);
}

// A prefix of the workload's stream, at most `max_updates` long.
size_t PrefixLen(const Stream& stream, size_t max_updates) {
  return std::min(stream.updates.size(), max_updates);
}

// Drives a guttering system with the workload's spans while a consumer
// thread only releases slabs, so the figure is the buffer alone.
double GutterInsertNs(gz::GutteringSystem* gutters, gz::BatchPool* pool,
                      gz::WorkQueue* queue, const Stream& stream,
                      size_t count, size_t span) {
  std::thread consumer([&] {
    while (gz::UpdateBatch* b = queue->Pop()) {
      pool->Release(b);
      queue->MarkDone();
    }
  });
  const int64_t t = NowNs();
  for (size_t off = 0; off < count; off += span) {
    gutters->InsertBatch(stream.updates.data() + off,
                         std::min(span, count - off));
  }
  const double s = (NowNs() - t) * 1e-9;
  gutters->ForceFlush();
  queue->Close();
  consumer.join();
  return 1e9 * s / static_cast<double>(count);
}

}  // namespace

void MeasureLayers(const LayerInputs& in, Report* report) {
  const Stream& stream = *in.stream;
  const gz::GraphZeppelinConfig& config = in.config;
  const uint64_t v = config.num_nodes;
  const size_t span = in.span_updates;
  const size_t batch = GutterCapacity(config);
  const size_t queue_capacity = static_cast<size_t>(8) * config.num_workers;
  report->InfoNum("layers.node_batch_updates", static_cast<double>(batch));

  // sketch: NodeSketch::UpdateBatch with per-node batches of a leaf
  // gutter's size, rotating over many nodes as the workers do.
  {
    gz::NodeSketchParams sp;
    sp.num_nodes = v;
    sp.seed = config.seed;
    sp.cols = config.cols;
    sp.rounds = config.rounds;
    const size_t count = PrefixLen(stream, size_t{1} << 18);
    std::vector<uint64_t> indices(count);
    for (size_t i = 0; i < count; ++i) {
      indices[i] = gz::EdgeToIndex(stream.updates[i].edge, v);
    }
    std::vector<gz::NodeSketch> sketches(
        static_cast<size_t>(std::min<uint64_t>(v, 64)), gz::NodeSketch(sp));
    const double s = TimeMedian(nullptr, [&] {
      size_t node = 0;
      for (size_t off = 0; off < count; off += batch) {
        sketches[node++ % sketches.size()].UpdateBatch(
            indices.data() + off, std::min(batch, count - off));
      }
    });
    report->Metric("sketch.update_ns", 1e9 * s / static_cast<double>(count),
                   "ns");
  }

  // sketch: GraphSnapshot::Merge, bytes of one serialized snapshot per
  // merge.
  if (in.snapshot != nullptr && in.snapshot->valid()) {
    const gz::GraphSnapshot& snap = *in.snapshot;
    const double bytes = static_cast<double>(snap.SerializedSize());
    gz::GraphSnapshot acc;
    const double merge_s = TimeMedian([&] { acc = snap; },
                                      [&] { (void)acc.Merge(snap); });
    report->Metric("sketch.merge_gbps", bytes / merge_s / 1e9, "GB/s");
    acc = gz::GraphSnapshot();
    std::vector<uint8_t> wire;
    const double ser_s = TimeMedian([&] { wire = std::vector<uint8_t>(); },
                                    [&] { wire = snap.Serialize(); });
    report->Metric("core.serialize_gbps",
                   static_cast<double>(wire.size()) / ser_s / 1e9, "GB/s");
  }

  const size_t gutter_count = PrefixLen(stream, size_t{1} << 20);
  // buffer: LeafGutters::InsertBatch.
  {
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
      gz::BatchPool pool(static_cast<uint32_t>(batch));
      gz::WorkQueue queue(queue_capacity);
      gz::LeafGuttersParams lp;
      lp.num_nodes = v;
      lp.gutter_capacity = batch;
      gz::LeafGutters gutters(lp, &pool, &queue);
      ns.push_back(
          GutterInsertNs(&gutters, &pool, &queue, stream, gutter_count, span));
    }
    report->Metric("buffer.insert_ns", Median(ns), "ns");
  }
  // buffer: the gutter tree, backed by a file in the run's directory.
  if (in.gutter_tree) {
    std::vector<double> ns;
    const std::string path = in.tmp_dir + "/gzbench_layer_tree.bin";
    for (int r = 0; r < kReps; ++r) {
      gz::BatchPool pool(static_cast<uint32_t>(batch));
      gz::WorkQueue queue(queue_capacity);
      gz::GutterTreeParams tp;
      tp.num_nodes = v;
      tp.file_path = path;
      tp.buffer_bytes = config.gutter_tree_buffer_bytes;
      tp.fanout = config.gutter_tree_fanout;
      tp.leaf_gutter_updates = batch;
      gz::GutterTree tree(tp, &pool, &queue);
      const gz::Status s = tree.Init();
      report->Attempt(s, "gutter tree init");
      if (s.ok()) {
        ns.push_back(
            GutterInsertNs(&tree, &pool, &queue, stream, gutter_count, span));
      }
      ::unlink(path.c_str());
    }
    if (!ns.empty()) report->Metric("buffer.tree_insert_ns", Median(ns), "ns");
  }

  // distributed: RouteToShard over the stream.
  {
    const gz::RoutingTable table = gz::MakeRoutingTable(in.shards);
    const size_t count = PrefixLen(stream, size_t{1} << 20);
    uint64_t sink = 0;
    const double s = TimeMedian(nullptr, [&] {
      for (size_t i = 0; i < count; ++i) {
        sink += static_cast<uint64_t>(
            gz::RouteToShard(stream.updates[i].edge, v, table));
      }
    });
    report->InfoNum("layers.route_checksum", static_cast<double>(sink));
    report->Metric("distributed.route_ns", 1e9 * s / static_cast<double>(count),
                   "ns");
  }

  // util: CRC32C over buffers the size of one shard's slice of a span.
  {
    const size_t frame =
        std::max<size_t>(1, span / in.shards) * sizeof(gz::GraphUpdate);
    std::vector<uint8_t> buf(frame);
    const size_t have = std::min(frame, stream.updates.size() *
                                            sizeof(gz::GraphUpdate));
    std::copy_n(reinterpret_cast<const uint8_t*>(stream.updates.data()), have,
                buf.begin());
    const size_t frames = std::max<size_t>(1, (size_t{256} << 20) / frame);
    uint32_t sink = 0;
    const double s = TimeMedian(nullptr, [&] {
      for (size_t i = 0; i < frames; ++i) {
        sink ^= gz::Crc32c(buf.data(), buf.size());
      }
    });
    report->InfoNum("layers.crc_checksum", sink);
    report->Metric("util.crc32c_gbps",
                   static_cast<double>(frames * frame) / s / 1e9, "GB/s");
  }

  // workloads: HeavyHitterSketch::Update on the stream's spans, at the
  // width the sharded workload runs with.
  {
    gz::HeavyHitterParams hp;
    hp.num_nodes = v;
    hp.seed = config.seed;
    hp.width = 4096;
    hp.depth = config.heavy_hitter_depth;
    hp.candidates = config.heavy_hitter_candidates;
    const size_t count = PrefixLen(stream, size_t{1} << 20);
    std::unique_ptr<gz::HeavyHitterSketch> hh;
    const double s = TimeMedian(
        [&] { hh = std::make_unique<gz::HeavyHitterSketch>(hp); },
        [&] {
          for (size_t off = 0; off < count; off += span) {
            hh->Update(stream.updates.data() + off,
                       std::min(span, count - off));
          }
        });
    report->Metric("workloads.hh_update_ns",
                   1e9 * s / static_cast<double>(count), "ns");
  }
}

}  // namespace gzb
