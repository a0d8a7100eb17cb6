// End-to-end tests of the GraphZeppelin system across all four
// buffering x storage configurations.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>
#include <tuple>

#include "baseline/matrix_checker.h"
#include "core/graph_zeppelin.h"
#include "util/check.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

using Buffering = GraphZeppelinConfig::Buffering;
using Storage = GraphZeppelinConfig::Storage;

GraphZeppelinConfig MakeConfig(uint64_t num_nodes, uint64_t seed,
                               Buffering buffering, Storage storage) {
  GraphZeppelinConfig c;
  c.num_nodes = num_nodes;
  c.seed = seed;
  c.num_workers = 2;
  c.buffering = buffering;
  c.storage = storage;
  c.disk_dir = ::testing::TempDir();
  c.gutter_tree_buffer_bytes = 1 << 12;  // Small: force tree traffic.
  c.gutter_tree_fanout = 8;
  return c;
}

class GraphZeppelinConfigTest
    : public ::testing::TestWithParam<std::tuple<Buffering, Storage>> {};

TEST_P(GraphZeppelinConfigTest, SmallGraphEndToEnd) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(64, 7, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  // Two components: a path 0..9 and a triangle 20-21-22.
  for (NodeId i = 0; i + 1 < 10; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  gz.Update({Edge(20, 21), UpdateType::kInsert});
  gz.Update({Edge(21, 22), UpdateType::kInsert});
  gz.Update({Edge(20, 22), UpdateType::kInsert});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  // 64 - 10 - 3 singletons + path + triangle.
  EXPECT_EQ(r.num_components, 64u - 10u - 3u + 2u);
  EXPECT_EQ(r.component_of[0], r.component_of[9]);
  EXPECT_EQ(r.component_of[20], r.component_of[22]);
  EXPECT_NE(r.component_of[0], r.component_of[20]);
}

TEST_P(GraphZeppelinConfigTest, DeletionsDisconnect) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(16, 9, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(1, 2), UpdateType::kDelete});

  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.component_of[0], r.component_of[1]);
  EXPECT_NE(r.component_of[1], r.component_of[2]);
}

TEST_P(GraphZeppelinConfigTest, QueriesMidStreamThenContinue) {
  const auto [buffering, storage] = GetParam();
  GraphZeppelin gz(MakeConfig(32, 11, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());

  gz.Update({Edge(0, 1), UpdateType::kInsert});
  const ConnectivityResult r1 = gz.ListSpanningForest();
  ASSERT_FALSE(r1.failed);
  EXPECT_EQ(r1.num_components, 31u);

  // Ingestion continues after the query.
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  gz.Update({Edge(2, 3), UpdateType::kInsert});
  const ConnectivityResult r2 = gz.ListSpanningForest();
  ASSERT_FALSE(r2.failed);
  EXPECT_EQ(r2.num_components, 29u);
  EXPECT_EQ(r2.component_of[0], r2.component_of[3]);
}

TEST_P(GraphZeppelinConfigTest, RandomStreamMatchesExactChecker) {
  const auto [buffering, storage] = GetParam();
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 21;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 21;
  tp.disconnect_count = 4;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelin gz(MakeConfig(n, 23, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  // Partitions must agree exactly.
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
  EXPECT_EQ(gz.num_updates_ingested(), stream.updates.size());
}

// A changed-only read through WriteChangedNodeRangesTo, collected into
// one buffer; `*begun` receives the byte count announced up front.
std::vector<uint8_t> ChangedSince(GraphZeppelin& gz, uint64_t lo,
                                  uint64_t hi, const ChangeToken& since,
                                  size_t* begun = nullptr) {
  std::vector<uint8_t> out;
  GZ_CHECK_OK(gz.WriteChangedNodeRangesTo(
      lo, hi, since,
      [begun](size_t bytes) {
        if (begun != nullptr) *begun = bytes;
        return Status::Ok();
      },
      [&out](const void* data, size_t size) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        out.insert(out.end(), p, p + size);
        return Status::Ok();
      }));
  return out;
}

// The [lo, hi) runs a changed-range stream carries, in order.
std::vector<std::pair<uint64_t, uint64_t>> RunsOf(
    const std::vector<uint8_t>& stream, const NodeSketchParams& params) {
  uint64_t count = 0;
  std::memcpy(&count, stream.data() + 16, 8);
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  const size_t header = GraphSnapshot::SerializedRangeSizeFor(params, 0, 1) -
                        NodeSketch::SerializedSizeFor(params);
  size_t at = GraphSnapshot::kChangedRangesPrefixBytes;
  for (uint64_t r = 0; r < count; ++r) {
    uint64_t lo = 0, hi = 0;
    std::memcpy(&lo, stream.data() + at + header - 16, 8);
    std::memcpy(&hi, stream.data() + at + header - 8, 8);
    runs.emplace_back(lo, hi);
    at += GraphSnapshot::SerializedRangeSizeFor(params, lo, hi);
  }
  EXPECT_EQ(at, stream.size());
  return runs;
}

// One reader of a GraphZeppelin's changes: retained content plus the
// token of its last read, refreshed the way the snapshot cache does it.
struct ChangeReader {
  explicit ChangeReader(const NodeSketchParams& params)
      : content(std::vector<NodeSketch>(params.num_nodes, NodeSketch(params)),
                0),
        sum(content) {}
  std::vector<std::pair<uint64_t, uint64_t>> Read(GraphZeppelin& gz) {
    const std::vector<uint8_t> stream =
        ChangedSince(gz, 0, gz.config().num_nodes, token);
    GZ_CHECK_OK(content.ReplaceChangedNodeRanges(stream.data(),
                                                 stream.size(), &sum, &token));
    return RunsOf(stream, gz.sketch_params());
  }
  GraphSnapshot content;
  GraphSnapshot sum;  // Unused fold target.
  ChangeToken token;
};

TEST_P(GraphZeppelinConfigTest, ChangedReadsTrackEveryMutationPath) {
  // Two readers with their own tokens, interleaved over ingest (the
  // workers' stamps), a migration-style range fold and a snapshot load:
  // after every read the reader's content equals the instance's state
  // bitwise, and a one-edge toggle costs exactly its two endpoints.
  const auto [buffering, storage] = GetParam();
  const uint64_t n = 48;
  GraphZeppelin gz(MakeConfig(n, 17, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());
  ChangeReader a(gz.sketch_params()), b(gz.sketch_params());
  const auto exact = [&](const ChangeReader& r) {
    GraphSnapshot want = gz.Snapshot();
    want.SetUpdates(0);
    return r.content == want;
  };
  // From the zero token a read is a full read: one run, every node.
  EXPECT_EQ(a.Read(gz), (std::vector<std::pair<uint64_t, uint64_t>>{{0, n}}));
  for (NodeId i = 0; i + 1 < n; i += 2) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  EXPECT_FALSE(a.Read(gz).empty());
  EXPECT_TRUE(exact(a));

  gz.Update({Edge(3, 30), UpdateType::kInsert});
  EXPECT_EQ(a.Read(gz),
            (std::vector<std::pair<uint64_t, uint64_t>>{{3, 4}, {30, 31}}));
  EXPECT_TRUE(exact(a));
  EXPECT_TRUE(a.Read(gz).empty()) << "nothing changed since the last read";

  // Reader b has never read: it gets everything, and its read clears
  // nothing a's next read needs.
  gz.Update({Edge(5, 40), UpdateType::kDelete});
  b.Read(gz);
  EXPECT_TRUE(exact(b));
  EXPECT_EQ(a.Read(gz),
            (std::vector<std::pair<uint64_t, uint64_t>>{{5, 6}, {40, 41}}));
  EXPECT_TRUE(exact(a));

  // Migration-style fold of another instance's range: stamps too.
  {
    GraphZeppelin twin(MakeConfig(n, 17, buffering, storage));
    ASSERT_TRUE(twin.Init().ok());
    twin.Update({Edge(10, 12), UpdateType::kInsert});
    std::vector<uint8_t> delta;
    ASSERT_TRUE(twin.WriteNodeRangeTo(10, 13,
                                      [&delta](const void* data, size_t size) {
                                        const uint8_t* p =
                                            static_cast<const uint8_t*>(data);
                                        delta.insert(delta.end(), p, p + size);
                                        return Status::Ok();
                                      })
                    .ok());
    ASSERT_TRUE(gz.MergeSerializedNodeRange(delta.data(), delta.size()).ok());
  }
  EXPECT_EQ(a.Read(gz), (std::vector<std::pair<uint64_t, uint64_t>>{{10, 13}}));
  EXPECT_TRUE(exact(a));
  EXPECT_EQ(b.Read(gz), (std::vector<std::pair<uint64_t, uint64_t>>{{10, 13}}));
  EXPECT_TRUE(exact(b));

  // A snapshot load overwrites every node: every node is stamped.
  {
    GraphSnapshot snap = gz.Snapshot();
    ASSERT_TRUE(gz.LoadSnapshot(snap).ok());
  }
  EXPECT_EQ(a.Read(gz), (std::vector<std::pair<uint64_t, uint64_t>>{{0, n}}));
  EXPECT_TRUE(exact(a));
}

TEST_P(GraphZeppelinConfigTest, ChangedReadFramingAndForeignTokens) {
  const auto [buffering, storage] = GetParam();
  const uint64_t n = 20;
  GraphZeppelin gz(MakeConfig(n, 19, buffering, storage));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(2, 9), UpdateType::kInsert});
  // `begin` announces the exact stream length before the first write,
  // and the stream's token names this store.
  size_t begun = 0;
  const std::vector<uint8_t> full = ChangedSince(gz, 4, 11, {}, &begun);
  EXPECT_EQ(begun, full.size());
  EXPECT_EQ(RunsOf(full, gz.sketch_params()),
            (std::vector<std::pair<uint64_t, uint64_t>>{{4, 11}}));
  ChangeToken token;
  std::memcpy(&token.incarnation, full.data(), 8);
  std::memcpy(&token.generation, full.data() + 8, 8);
  EXPECT_NE(token.incarnation, 0u);
  // A sub-range read reports only that range's changes.
  gz.Update({Edge(2, 9), UpdateType::kDelete});
  EXPECT_EQ(RunsOf(ChangedSince(gz, 4, 11, token), gz.sketch_params()),
            (std::vector<std::pair<uint64_t, uint64_t>>{{9, 10}}));
  // A token of another store (same generation, other incarnation)
  // matches nothing: every node of the range comes back.
  ChangeToken foreign = token;
  foreign.incarnation ^= 1;
  EXPECT_EQ(RunsOf(ChangedSince(gz, 0, n, foreign), gz.sketch_params()),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, n}}));
  // A bad range is an error before anything is written.
  bool began = false;
  const auto begin = [&began](size_t) {
    began = true;
    return Status::Ok();
  };
  const auto sink = [](const void*, size_t) { return Status::Ok(); };
  EXPECT_EQ(gz.WriteChangedNodeRangesTo(5, 5, token, begin, sink).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gz.WriteChangedNodeRangesTo(0, n + 1, token, begin, sink).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(began);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GraphZeppelinConfigTest,
    ::testing::Combine(::testing::Values(Buffering::kLeafOnly,
                                         Buffering::kGutterTree),
                       ::testing::Values(Storage::kRam, Storage::kDisk)),
    [](const ::testing::TestParamInfo<std::tuple<Buffering, Storage>>& info) {
      std::string name =
          std::get<0>(info.param) == Buffering::kLeafOnly ? "LeafOnly"
                                                          : "GutterTree";
      name += std::get<1>(info.param) == Storage::kRam ? "Ram" : "Disk";
      return name;
    });

TEST(GraphZeppelinTest, DestructionWithBufferedUpdatesIsClean) {
  // Destroying an instance with unflushed gutters and queued batches
  // must shut down workers without deadlock or crash.
  for (auto buffering : {Buffering::kLeafOnly, Buffering::kGutterTree}) {
    GraphZeppelin gz(MakeConfig(32, 71, buffering, Storage::kRam));
    ASSERT_TRUE(gz.Init().ok());
    for (NodeId i = 0; i + 1 < 32; ++i) {
      gz.Update({Edge(i, i + 1), UpdateType::kInsert});
    }
    // No flush, no query: destructor runs with work in flight.
  }
  SUCCEED();
}

TEST(GraphZeppelinTest, InitRequiredBeforeUpdate) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  EXPECT_DEATH(gz.Update({Edge(0, 1), UpdateType::kInsert}), "Init");
}

TEST(GraphZeppelinTest, DoubleInitFails) {
  GraphZeppelin gz(MakeConfig(8, 1, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.Init().code(), StatusCode::kFailedPrecondition);
}

TEST(GraphZeppelinTest, ByteSizeAccounting) {
  GraphZeppelin ram(MakeConfig(64, 2, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(ram.Init().ok());
  EXPECT_GT(ram.RamByteSize(), ram.node_sketch_bytes() * 64);
  EXPECT_EQ(ram.DiskByteSize(), 0u);

  GraphZeppelin disk(
      MakeConfig(64, 3, Buffering::kGutterTree, Storage::kDisk));
  ASSERT_TRUE(disk.Init().ok());
  EXPECT_GT(disk.DiskByteSize(), disk.node_sketch_bytes() * 64);
  // On disk, RAM holds only buffers/metadata: far below the sketch total.
  EXPECT_LT(disk.RamByteSize(), disk.DiskByteSize());
}

TEST(GraphZeppelinTest, ConfigurableRounds) {
  GraphZeppelinConfig c =
      MakeConfig(64, 4, Buffering::kLeafOnly, Storage::kRam);
  c.rounds = 3;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_EQ(gz.sketch_params().rounds, 3);
}

TEST(GraphZeppelinTest, GroupedGuttersMatchChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.2;
  ep.seed = 51;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 51;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c = MakeConfig(n, 52, Buffering::kLeafOnly,
                                     Storage::kRam);
  c.nodes_per_gutter_group = 6;  // Section 4.1 node groups.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, GutterTreeWithNodeGroupsMatchesChecker) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 61;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 61;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  GraphZeppelinConfig c =
      MakeConfig(n, 62, Buffering::kGutterTree, Storage::kDisk);
  c.nodes_per_gutter_group = 5;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    gz.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = gz.ListSpanningForest();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphZeppelinTest, HotNodeUnderManyWorkers) {
  // Every edge touches node 0: all batches race on one sketch. The
  // delta-XOR merge must serialize correctly.
  GraphZeppelinConfig c =
      MakeConfig(64, 63, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  c.gutter_fraction = 1e-9;  // One-update batches: maximum contention.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId v = 1; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kInsert});
  }
  for (NodeId v = 32; v < 64; ++v) {
    gz.Update({Edge(0, v), UpdateType::kDelete});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u + 32u);  // Star of 32 + 32 singletons.
  EXPECT_TRUE(r.Connected(0, 31));
  EXPECT_FALSE(r.Connected(0, 32));
}

TEST(GraphZeppelinTest, UnwritableDiskDirFailsInit) {
  GraphZeppelinConfig c =
      MakeConfig(8, 64, Buffering::kGutterTree, Storage::kDisk);
  c.disk_dir = "/nonexistent_dir_for_gz_test";
  GraphZeppelin gz(c);
  EXPECT_FALSE(gz.Init().ok());
}

TEST(GraphZeppelinTest, TinyGuttersStillCorrect) {
  GraphZeppelinConfig c =
      MakeConfig(24, 53, Buffering::kLeafOnly, Storage::kRam);
  c.gutter_fraction = 1e-9;  // Clamps to one update per gutter.
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 24; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}

TEST(GraphZeppelinTest, MinimalTwoNodeGraph) {
  GraphZeppelin gz(MakeConfig(2, 54, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  gz.Update({Edge(0, 1), UpdateType::kDelete});
  r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
}

TEST(GraphZeppelinTest, OutOfRangeNodeAborts) {
  GraphZeppelin gz(MakeConfig(8, 55, Buffering::kLeafOnly, Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  EXPECT_DEATH(gz.Update({Edge(0, 8), UpdateType::kInsert}), "v < num_nodes");
}

class GraphZeppelinSeedSweepTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GraphZeppelinSeedSweepTest, NeverWrongAcrossSeeds) {
  // A miniature Section 6.3 inside the unit suite: many sketch seeds on
  // one stream, every answer exact.
  const uint64_t seed = GetParam();
  const uint64_t n = 40;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 5;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 5;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) checker.Update(u);
  const size_t expect = checker.ConnectedComponents().num_components;

  GraphZeppelin gz(MakeConfig(n, seed * 7919 + 13, Buffering::kLeafOnly,
                              Storage::kRam));
  ASSERT_TRUE(gz.Init().ok());
  for (const GraphUpdate& u : stream.updates) gz.Update(u);
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphZeppelinSeedSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(GraphZeppelinTest, ManyWorkersProduceSameAnswer) {
  GraphZeppelinConfig c =
      MakeConfig(32, 5, Buffering::kLeafOnly, Storage::kRam);
  c.num_workers = 8;
  GraphZeppelin gz(c);
  ASSERT_TRUE(gz.Init().ok());
  for (NodeId i = 0; i + 1 < 32; ++i) {
    gz.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
}

}  // namespace
}  // namespace gz
