// Tests for the in-memory and on-disk sketch stores.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/sketch_store.h"
#include "util/random.h"

namespace gz {
namespace {

NodeSketchParams MakeParams(uint64_t num_nodes, uint64_t seed) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  p.rounds = 4;  // Keep tests fast.
  return p;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

NodeSketch SketchOf(const NodeSketchParams& params,
                    const std::vector<uint64_t>& indices) {
  NodeSketch s(params);
  s.UpdateBatch(indices.data(), indices.size());
  return s;
}

class SketchStoreTest : public ::testing::TestWithParam<bool> {
 protected:
  // Builds a RAM or disk store according to the param.
  std::unique_ptr<SketchStore> MakeStore(const NodeSketchParams& params,
                                         const char* name) {
    if (!GetParam()) return std::make_unique<InMemorySketchStore>(params);
    auto store = std::make_unique<OnDiskSketchStore>(params, TempPath(name));
    GZ_CHECK_OK(store->Init());
    return store;
  }
};

TEST_P(SketchStoreTest, FreshStoreHoldsEmptySketches) {
  const NodeSketchParams params = MakeParams(8, 1);
  auto store = MakeStore(params, "store_fresh.bin");
  NodeSketch out(store->params());
  store->Load(3, &out);
  NodeSketch empty(store->params());
  EXPECT_EQ(out, empty);
}

TEST_P(SketchStoreTest, MergeDeltaAccumulates) {
  const NodeSketchParams params = MakeParams(8, 2);
  auto store = MakeStore(params, "store_acc.bin");
  const NodeSketchParams real = store->params();

  store->MergeDelta(2, SketchOf(real, {1, 5}));
  store->MergeDelta(2, SketchOf(real, {9}));

  NodeSketch expect = SketchOf(real, {1, 5, 9});
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, expect);
}

TEST_P(SketchStoreTest, NodesAreIndependent) {
  const NodeSketchParams params = MakeParams(4, 3);
  auto store = MakeStore(params, "store_indep.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(0, SketchOf(real, {1}));
  store->MergeDelta(3, SketchOf(real, {2}));

  NodeSketch got0(real), got3(real), empty(real);
  store->Load(0, &got0);
  store->Load(3, &got3);
  EXPECT_EQ(got0, SketchOf(real, {1}));
  EXPECT_EQ(got3, SketchOf(real, {2}));
  NodeSketch got1(real);
  store->Load(1, &got1);
  EXPECT_EQ(got1, empty);
}

TEST_P(SketchStoreTest, XorCancellation) {
  const NodeSketchParams params = MakeParams(4, 4);
  auto store = MakeStore(params, "store_cancel.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(1, SketchOf(real, {3}));
  store->MergeDelta(1, SketchOf(real, {3}));  // Same toggle cancels.
  NodeSketch got(real), empty(real);
  store->Load(1, &got);
  EXPECT_EQ(got, empty);
}

TEST_P(SketchStoreTest, ConcurrentMergesMatchSerial) {
  const NodeSketchParams params = MakeParams(16, 5);
  auto store = MakeStore(params, "store_conc.bin");
  const NodeSketchParams real = store->params();

  // 4 threads x 50 deltas, all hammering the same few nodes.
  constexpr int kThreads = 4;
  constexpr int kDeltas = 50;
  std::vector<std::vector<std::vector<uint64_t>>> plans(kThreads);
  SplitMix64 rng(99);
  const uint64_t max_index = NumPossibleEdges(16);
  for (int t = 0; t < kThreads; ++t) {
    for (int d = 0; d < kDeltas; ++d) {
      std::vector<uint64_t> batch;
      for (int i = 0; i < 20; ++i) batch.push_back(rng.NextBelow(max_index));
      plans[t].push_back(std::move(batch));
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& batch : plans[t]) {
        const NodeId node = static_cast<NodeId>(batch[0] % 3);
        store->MergeDelta(node, SketchOf(real, batch));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Serial reference.
  std::vector<NodeSketch> expect;
  for (int i = 0; i < 3; ++i) expect.emplace_back(real);
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& batch : plans[t]) {
      const NodeId node = static_cast<NodeId>(batch[0] % 3);
      expect[node].Merge(SketchOf(real, batch));
    }
  }
  for (NodeId node = 0; node < 3; ++node) {
    NodeSketch got(real);
    store->Load(node, &got);
    EXPECT_EQ(got, expect[node]) << "node " << node;
  }
}

TEST_P(SketchStoreTest, RecordFormsMatchSketchForms) {
  // SerializeNode is Load + SerializeTo; MergeSerializedNode is
  // DeserializeFrom + MergeDelta — byte for byte, with no scratch
  // sketch in between.
  const NodeSketchParams params = MakeParams(5, 10);
  auto store = MakeStore(params, "store_records.bin");
  const NodeSketchParams real = store->params();
  ASSERT_EQ(store->record_bytes(), NodeSketch::SerializedSizeFor(real));
  store->MergeDelta(3, SketchOf(real, {2, 7}));
  std::vector<uint8_t> record(store->record_bytes());
  store->SerializeNode(3, record.data());
  std::vector<uint8_t> want(store->record_bytes());
  SketchOf(real, {2, 7}).SerializeTo(want.data());
  EXPECT_EQ(record, want);

  std::vector<uint8_t> delta(store->record_bytes());
  SketchOf(real, {7, 9}).SerializeTo(delta.data());
  store->MergeSerializedNode(3, delta.data());
  NodeSketch got(real);
  store->Load(3, &got);
  EXPECT_EQ(got, SketchOf(real, {2, 9}));
}

TEST_P(SketchStoreTest, EveryMutationStampsItsNode) {
  // Each mutating call stamps exactly its node with the generation
  // current at the call; reads stamp nothing. AdvanceGeneration()
  // returns the generation in force and moves past it, so a change
  // after it stamps strictly above the returned value.
  const NodeSketchParams params = MakeParams(6, 11);
  auto store = MakeStore(params, "store_stamps.bin");
  const NodeSketchParams real = store->params();
  for (NodeId i = 0; i < 6; ++i) EXPECT_EQ(store->stamp(i), 0u);

  const uint64_t g0 = store->AdvanceGeneration();
  store->MergeDelta(1, SketchOf(real, {4}));
  EXPECT_GT(store->stamp(1), g0);

  const uint64_t g1 = store->AdvanceGeneration();
  EXPECT_GT(g1, g0);
  EXPECT_LE(store->stamp(1), g1);
  store->Store(2, SketchOf(real, {5}));
  EXPECT_GT(store->stamp(2), g1);

  const uint64_t g2 = store->AdvanceGeneration();
  std::vector<uint8_t> record(store->record_bytes());
  SketchOf(real, {6}).SerializeTo(record.data());
  store->MergeSerializedNode(4, record.data());
  EXPECT_GT(store->stamp(4), g2);

  // Reads leave every stamp where it was; untouched nodes stay at 0.
  const uint64_t before[3] = {store->stamp(1), store->stamp(2),
                              store->stamp(4)};
  NodeSketch scratch(real);
  for (NodeId i = 0; i < 6; ++i) {
    store->Load(i, &scratch);
    store->SerializeNode(i, record.data());
  }
  EXPECT_EQ(store->stamp(1), before[0]);
  EXPECT_EQ(store->stamp(2), before[1]);
  EXPECT_EQ(store->stamp(4), before[2]);
  EXPECT_EQ(store->stamp(0), 0u);
  EXPECT_EQ(store->stamp(3), 0u);
  EXPECT_EQ(store->stamp(5), 0u);
}

TEST_P(SketchStoreTest, ConcurrentMergesStampAboveTheLastRead) {
  // Workers merge while a reader advances the generation between
  // rounds (the extract's pattern: merges are joined before the read).
  // After every round, each node merged in it stamps above the
  // generation the previous read returned.
  const NodeSketchParams params = MakeParams(8, 12);
  auto store = MakeStore(params, "store_stamp_conc.bin");
  const NodeSketchParams real = store->params();
  for (int round = 0; round < 5; ++round) {
    const uint64_t read_at = store->AdvanceGeneration();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int d = 0; d < 10; ++d) {
          store->MergeDelta(static_cast<NodeId>((t + round) % 8),
                            SketchOf(real, {static_cast<uint64_t>(d + 1)}));
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int t = 0; t < 4; ++t) {
      EXPECT_GT(store->stamp(static_cast<NodeId>((t + round) % 8)), read_at)
          << "round " << round;
    }
  }
}

TEST_P(SketchStoreTest, IncarnationsDifferAcrossStores) {
  const NodeSketchParams params = MakeParams(4, 13);
  auto a = MakeStore(params, "store_inc_a.bin");
  auto b = MakeStore(params, "store_inc_b.bin");
  EXPECT_NE(a->incarnation(), 0u);
  EXPECT_NE(b->incarnation(), 0u);
  EXPECT_NE(a->incarnation(), b->incarnation());
}

INSTANTIATE_TEST_SUITE_P(RamAndDisk, SketchStoreTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Disk" : "Ram";
                         });

TEST_P(SketchStoreTest, StoreOverwrites) {
  const NodeSketchParams params = MakeParams(6, 9);
  auto store = MakeStore(params, "store_overwrite.bin");
  const NodeSketchParams real = store->params();
  store->MergeDelta(2, SketchOf(real, {1, 2}));
  // Overwrite with a fresh sketch: prior contents must vanish.
  store->Store(2, SketchOf(real, {4}));
  NodeSketch got(real);
  store->Load(2, &got);
  EXPECT_EQ(got, SketchOf(real, {4}));
}

TEST(OnDiskSketchStoreTest, DiskByteSizeMatchesRecords) {
  const NodeSketchParams params = MakeParams(10, 6);
  OnDiskSketchStore store(params, TempPath("store_size.bin"));
  ASSERT_TRUE(store.Init().ok());
  NodeSketch prototype(store.params());
  EXPECT_EQ(store.DiskByteSize(), prototype.SerializedSize() * 10);
  // RAM footprint excludes the sketches themselves.
  EXPECT_LT(store.RamByteSize(), store.DiskByteSize());
}

TEST(OnDiskSketchStoreTest, TracksIoCounters) {
  const NodeSketchParams params = MakeParams(4, 7);
  OnDiskSketchStore store(params, TempPath("store_io.bin"));
  ASSERT_TRUE(store.Init().ok());
  store.MergeDelta(0, SketchOf(store.params(), {3}));
  EXPECT_GT(store.bytes_read(), 0u);
  EXPECT_GT(store.bytes_written(), 0u);
}

TEST(InMemorySketchStoreTest, RamByteSizeCountsSketches) {
  const NodeSketchParams params = MakeParams(8, 8);
  InMemorySketchStore store(params);
  NodeSketch prototype(store.params());
  EXPECT_GE(store.RamByteSize(), prototype.ByteSize() * 8);
}

}  // namespace
}  // namespace gz
