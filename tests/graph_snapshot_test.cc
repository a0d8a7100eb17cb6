// Tests for the GraphSnapshot query surface: the merge algebra
// (commutative, associative, exact vs a single-instance ground truth),
// parameter-compatibility rejection, serialization round trips, and the
// determinism of the parallel Boruvka engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/matrix_checker.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_types.h"
#include "util/random.h"

namespace gz {
namespace {

GraphZeppelinConfig MakeConfig(uint64_t n, uint64_t seed) {
  GraphZeppelinConfig c;
  c.num_nodes = n;
  c.seed = seed;
  c.num_workers = 2;
  c.disk_dir = ::testing::TempDir();
  return c;
}

void Ingest(GraphZeppelin* gz, const EdgeList& edges) {
  for (const Edge& e : edges) gz->Update({e, UpdateType::kInsert});
}

// An instance that ingested exactly `edges`, snapshotted.
GraphSnapshot SnapshotOf(uint64_t n, uint64_t seed, const EdgeList& edges) {
  GraphZeppelin gz(MakeConfig(n, seed));
  GZ_CHECK_OK(gz.Init());
  Ingest(&gz, edges);
  return gz.Snapshot();
}

void ExpectSamePartition(const ConnectivityResult& got,
                         const ConnectivityResult& expect, uint64_t n) {
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j])
          << i << " vs " << j;
    }
  }
}

TEST(GraphSnapshotTest, CarriesMetadataAndSurvivesRepeatedQueries) {
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);

  GraphZeppelin gz(MakeConfig(n, 7));
  ASSERT_TRUE(gz.Init().ok());
  Ingest(&gz, edges);
  const GraphSnapshot snapshot = gz.Snapshot();

  ASSERT_TRUE(snapshot.valid());
  EXPECT_EQ(snapshot.num_nodes(), n);
  EXPECT_EQ(snapshot.seed(), 7u);
  EXPECT_EQ(snapshot.num_updates(), edges.size());
  EXPECT_EQ(snapshot.params(), gz.sketch_params());

  // Queries never mutate the snapshot: ask twice, compare against a
  // fresh capture of the same (unchanged) instance.
  const ConnectivityResult r1 = Connectivity(snapshot);
  const ConnectivityResult r2 = Connectivity(snapshot);
  ASSERT_FALSE(r1.failed);
  EXPECT_EQ(r1.spanning_forest, r2.spanning_forest);
  EXPECT_EQ(r1.component_of, r2.component_of);
  EXPECT_TRUE(snapshot == gz.Snapshot());
}

TEST(GraphSnapshotTest, MergeMatchesSingleInstanceGroundTruth) {
  // Split one stream across two same-seed instances; the merged
  // snapshot must be *bitwise* equal to the snapshot of one instance
  // that saw everything (linearity is exact, not approximate).
  const uint64_t n = 48;
  const uint64_t seed = 11;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 3;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const size_t half = edges.size() / 2;
  const EdgeList first(edges.begin(), edges.begin() + half);
  const EdgeList second(edges.begin() + half, edges.end());

  GraphSnapshot merged = SnapshotOf(n, seed, first);
  ASSERT_TRUE(merged.Merge(SnapshotOf(n, seed, second)).ok());
  const GraphSnapshot whole = SnapshotOf(n, seed, edges);
  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.num_updates(), edges.size());

  AdjacencyMatrixChecker checker(n);
  for (const Edge& e : edges) checker.Update({e, UpdateType::kInsert});
  ExpectSamePartition(Connectivity(merged), checker.ConnectedComponents(),
                      n);
}

TEST(GraphSnapshotTest, MergeCommutesAndAssociates) {
  const uint64_t n = 40;
  const uint64_t seed = 21;
  EdgeList a_edges, b_edges, c_edges;
  for (NodeId i = 0; i + 1 < 12; ++i) a_edges.emplace_back(i, i + 1);
  for (NodeId i = 12; i + 1 < 26; ++i) b_edges.emplace_back(i, i + 1);
  for (NodeId i = 0; i < 10; ++i) {
    c_edges.emplace_back(i, static_cast<NodeId>(i + 20));
  }

  // a + b == b + a.
  GraphSnapshot ab = SnapshotOf(n, seed, a_edges);
  ASSERT_TRUE(ab.Merge(SnapshotOf(n, seed, b_edges)).ok());
  GraphSnapshot ba = SnapshotOf(n, seed, b_edges);
  ASSERT_TRUE(ba.Merge(SnapshotOf(n, seed, a_edges)).ok());
  EXPECT_TRUE(ab == ba);

  // (a + b) + c == a + (b + c).
  GraphSnapshot ab_c = ab;
  ASSERT_TRUE(ab_c.Merge(SnapshotOf(n, seed, c_edges)).ok());
  GraphSnapshot bc = SnapshotOf(n, seed, b_edges);
  ASSERT_TRUE(bc.Merge(SnapshotOf(n, seed, c_edges)).ok());
  GraphSnapshot a_bc = SnapshotOf(n, seed, a_edges);
  ASSERT_TRUE(a_bc.Merge(bc).ok());
  EXPECT_TRUE(ab_c == a_bc);
}

TEST(GraphSnapshotTest, MergeRejectsIncompatibleParams) {
  const EdgeList edges = {Edge(0, 1)};
  GraphSnapshot base = SnapshotOf(16, 1, edges);

  // Different seed: sketches hash differently, merging would be garbage.
  GraphSnapshot other_seed = SnapshotOf(16, 2, edges);
  EXPECT_EQ(base.Merge(other_seed).code(), StatusCode::kInvalidArgument);

  // Different node bound.
  GraphSnapshot other_nodes = SnapshotOf(32, 1, edges);
  EXPECT_EQ(base.Merge(other_nodes).code(), StatusCode::kInvalidArgument);

  // Different sketch geometry.
  GraphZeppelinConfig config = MakeConfig(16, 1);
  config.cols = 5;
  GraphZeppelin gz(config);
  ASSERT_TRUE(gz.Init().ok());
  GraphSnapshot other_cols = gz.Snapshot();
  EXPECT_EQ(base.Merge(other_cols).code(), StatusCode::kInvalidArgument);

  // Empty snapshots cannot participate.
  GraphSnapshot empty;
  EXPECT_EQ(base.Merge(empty).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.Merge(base).code(), StatusCode::kInvalidArgument);

  // Node-granular deltas get the same checks.
  NodeSketchParams p;
  p.num_nodes = 16;
  p.seed = 99;
  EXPECT_EQ(base.MergeNodeDelta(0, NodeSketch(p)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(base.MergeNodeDelta(999, base.sketch(0)).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphSnapshotTest, ByteSerializationRoundTripsExactly) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 5;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const GraphSnapshot snapshot = SnapshotOf(n, 13, edges);

  const std::vector<uint8_t> bytes = snapshot.Serialize();
  EXPECT_EQ(bytes.size(), snapshot.SerializedSize());
  Result<GraphSnapshot> restored =
      GraphSnapshot::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value() == snapshot);

  // A deserialized snapshot answers queries identically to the live one.
  const ConnectivityResult live = Connectivity(snapshot);
  const ConnectivityResult thawed = Connectivity(restored.value());
  ASSERT_FALSE(live.failed);
  EXPECT_EQ(live.spanning_forest, thawed.spanning_forest);
  EXPECT_EQ(live.component_of, thawed.component_of);
}

TEST(GraphSnapshotTest, DeserializeRejectsGarbage) {
  const uint8_t junk[64] = {'n', 'o', 't', ' ', 'a', ' ', 's', 'n'};
  EXPECT_EQ(GraphSnapshot::Deserialize(junk, sizeof(junk)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GraphSnapshot::Deserialize(junk, 4).status().code(),
            StatusCode::kInvalidArgument);

  // Valid header, wrong body size.
  const GraphSnapshot snapshot = SnapshotOf(16, 1, {Edge(0, 1)});
  std::vector<uint8_t> bytes = snapshot.Serialize();
  EXPECT_EQ(GraphSnapshot::Deserialize(bytes.data(), bytes.size() - 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphSnapshotTest, FileRoundTripAndLoadIntoInstance) {
  const std::string path =
      std::string(::testing::TempDir()) + "/snapshot_roundtrip.snap";
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 20; ++i) edges.emplace_back(i, i + 1);
  const GraphSnapshot snapshot = SnapshotOf(n, 17, edges);
  ASSERT_TRUE(snapshot.SaveToFile(path).ok());

  Result<GraphSnapshot> loaded = GraphSnapshot::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == snapshot);

  // Install the loaded snapshot into a fresh same-params instance and
  // keep streaming: this is checkpoint restore through the public API.
  GraphZeppelin gz(MakeConfig(n, 17));
  ASSERT_TRUE(gz.Init().ok());
  ASSERT_TRUE(gz.LoadSnapshot(loaded.value()).ok());
  EXPECT_EQ(gz.num_updates_ingested(), edges.size());
  gz.Update({Edge(20, 21), UpdateType::kInsert});
  const ConnectivityResult r = gz.ListSpanningForest();
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.Connected(0, 19));
  EXPECT_TRUE(r.Connected(20, 21));
  EXPECT_FALSE(r.Connected(0, 21));

  // Params mismatch on install is rejected.
  GraphZeppelin other(MakeConfig(n, 18));
  ASSERT_TRUE(other.Init().ok());
  EXPECT_EQ(other.LoadSnapshot(loaded.value()).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(GraphSnapshot::LoadFromFile(path + ".missing").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, LegacyCheckpointMagicStillLoads) {
  // Pre-GraphSnapshot checkpoints used magic "GZCKPT01" over the same
  // byte layout; they must stay restorable.
  const std::string path =
      std::string(::testing::TempDir()) + "/legacy_magic.snap";
  const GraphSnapshot snapshot = SnapshotOf(16, 3, {Edge(1, 2)});
  std::vector<uint8_t> bytes = snapshot.Serialize();
  std::memcpy(bytes.data(), "GZCKPT01", 8);

  Result<GraphSnapshot> from_bytes =
      GraphSnapshot::Deserialize(bytes.data(), bytes.size());
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
  EXPECT_TRUE(from_bytes.value() == snapshot);

  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  Result<GraphSnapshot> from_file = GraphSnapshot::LoadFromFile(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_TRUE(from_file.value() == snapshot);
  std::remove(path.c_str());
}

TEST(GraphSnapshotTest, NodeRangeDeltasMoveStateExactly) {
  // The elastic-migration algebra: extracting ranges of A and folding
  // them into an empty snapshot rebuilds A's sketches; folding the same
  // delta back into A cancels it there (XOR "move"). Deltas carry no
  // update count by design.
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = 7;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const GraphSnapshot a = SnapshotOf(n, 21, edges);
  const GraphSnapshot empty = SnapshotOf(n, 21, {});

  GraphSnapshot rebuilt = empty;
  GraphSnapshot drained = a;
  for (const auto& [lo, hi] :
       std::vector<std::pair<uint64_t, uint64_t>>{{0, 17}, {17, 48}}) {
    const std::vector<uint8_t> delta = a.ExtractNodeRange(lo, hi);
    EXPECT_EQ(delta.size(),
              GraphSnapshot::SerializedRangeSizeFor(a.params(), lo, hi));
    ASSERT_TRUE(
        rebuilt.MergeSerializedNodeRange(delta.data(), delta.size()).ok());
    ASSERT_TRUE(
        drained.MergeSerializedNodeRange(delta.data(), delta.size()).ok());
  }
  // Counts are untouched by deltas; align them before bitwise compare.
  EXPECT_EQ(rebuilt.num_updates(), 0u);
  rebuilt.AddUpdates(a.num_updates());
  EXPECT_TRUE(rebuilt == a);
  drained.AddUpdates(a.num_updates() - drained.num_updates());
  // Every sketch in the drained snapshot is zeroed — it equals the
  // empty instance's snapshot (after count alignment).
  GraphSnapshot zero = empty;
  zero.AddUpdates(a.num_updates());
  EXPECT_TRUE(drained == zero);
}

// A snapshot of random sketch content under the given geometry (no
// graph meaning needed: the byte fold is pure XOR algebra).
GraphSnapshot RandomSnapshot(const NodeSketchParams& params,
                             uint64_t updates, uint64_t rng_seed) {
  SplitMix64 rng(rng_seed);
  const uint64_t vector_len = NumPossibleEdges(params.num_nodes);
  std::vector<NodeSketch> sketches(params.num_nodes, NodeSketch(params));
  for (NodeSketch& s : sketches) {
    for (int i = 0; i < 5; ++i) s.Update(rng.NextBelow(vector_len));
  }
  return GraphSnapshot(std::move(sketches), updates);
}

// `bytes` copied to a buffer at `offset` bytes past an allocation's
// (maximally aligned) start, so the fold reads at every alignment.
std::vector<uint8_t> Shifted(const std::vector<uint8_t>& bytes,
                             size_t offset) {
  std::vector<uint8_t> out(offset + bytes.size(), 0xA5);
  std::memcpy(out.data() + offset, bytes.data(), bytes.size());
  return out;
}

// The in-place byte fold (NodeSketch::MergeSerialized behind
// MergeSerialized / MergeSerializedNodeRange) and the replace-and-fold
// of the snapshot cache must equal the deserialize-into-scratch +
// Merge they replace, bit for bit: over whole snapshots and node
// ranges, from buffers at every alignment, and under geometries whose
// round record (12 bytes per bucket) is not a multiple of 8, so that
// later rounds' u64 words start misaligned.
TEST(GraphSnapshotTest, InPlaceByteFoldMatchesDeserializeThenMerge) {
  bool saw_unaligned_record = false;
  for (const int cols : {1, 2, 7}) {
    for (const uint64_t n : {uint64_t{32}, uint64_t{45}}) {
      NodeSketchParams p;
      p.num_nodes = n;
      p.seed = 11 + cols;
      p.cols = cols;
      p.rounds = NodeSketch::DefaultRounds(n);
      const size_t record = NodeSketch::SerializedSizeFor(p);
      const size_t round_record = record / p.rounds;
      saw_unaligned_record |= round_record % 8 != 0;
      SCOPED_TRACE(::testing::Message() << "cols " << cols << ", n " << n
                                        << ", round record "
                                        << round_record);
      const GraphSnapshot a = RandomSnapshot(p, 100, 1);
      const GraphSnapshot b = RandomSnapshot(p, 23, 2);
      const GraphSnapshot c = RandomSnapshot(p, 0, 3);

      // Reference fold: each record deserialized into a scratch sketch,
      // then merged.
      auto reference = [&p, record](GraphSnapshot base, const uint8_t* in,
                                    uint64_t lo, uint64_t hi) {
        NodeSketch scratch(p);
        for (uint64_t i = lo; i < hi; ++i, in += record) {
          scratch.DeserializeFrom(in);
          GZ_CHECK_OK(base.MergeNodeDelta(static_cast<NodeId>(i), scratch));
        }
        return base;
      };

      const std::vector<uint8_t> whole = b.Serialize();
      const size_t header = whole.size() - n * record;
      GraphSnapshot expect = reference(a, whole.data() + header, 0, n);
      expect.AddUpdates(b.num_updates());
      const uint64_t lo = 3, hi = n - 5;
      const std::vector<uint8_t> range = b.ExtractNodeRange(lo, hi);
      const size_t range_header = range.size() - (hi - lo) * record;
      const GraphSnapshot expect_range =
          reference(a, range.data() + range_header, lo, hi);
      for (const size_t offset : {0, 1, 4, 7}) {
        SCOPED_TRACE(offset);
        const std::vector<uint8_t> w = Shifted(whole, offset);
        GraphSnapshot got = a;
        ASSERT_TRUE(got.MergeSerialized(w.data() + offset, whole.size()).ok());
        EXPECT_TRUE(got == expect);
        EXPECT_TRUE(got.Serialize() == expect.Serialize());

        const std::vector<uint8_t> r = Shifted(range, offset);
        GraphSnapshot got_range = a;
        ASSERT_TRUE(
            got_range.MergeSerializedNodeRange(r.data() + offset, range.size())
                .ok());
        EXPECT_TRUE(got_range == expect_range);

        // Replace-and-fold: content takes the fresh bytes, the sum
        // takes content ^ fresh, in one pass.
        GraphSnapshot content = a;
        GraphSnapshot sum = c;
        ASSERT_TRUE(content
                        .ReplaceSerializedNodeRange(r.data() + offset,
                                                    range.size(), &sum)
                        .ok());
        for (uint64_t i = 0; i < n; ++i) {
          const bool in_range = i >= lo && i < hi;
          EXPECT_TRUE(content.sketch(static_cast<NodeId>(i)) ==
                      (in_range ? b : a).sketch(static_cast<NodeId>(i)))
              << "content node " << i;
          NodeSketch want = c.sketch(static_cast<NodeId>(i));
          if (in_range) {
            want.Merge(a.sketch(static_cast<NodeId>(i)));
            want.Merge(b.sketch(static_cast<NodeId>(i)));
          }
          EXPECT_TRUE(sum.sketch(static_cast<NodeId>(i)) == want)
              << "sum node " << i;
        }
        EXPECT_EQ(content.num_updates(), a.num_updates());
        EXPECT_EQ(sum.num_updates(), c.num_updates());
      }
    }
  }
  EXPECT_TRUE(saw_unaligned_record);
}

TEST(GraphSnapshotTest, ReplaceAndFoldRejectsMismatchUnchanged) {
  NodeSketchParams p;
  p.num_nodes = 16;
  p.seed = 5;
  p.rounds = NodeSketch::DefaultRounds(16);
  NodeSketchParams other = p;
  other.seed = 6;
  const GraphSnapshot a = RandomSnapshot(p, 0, 1);
  const GraphSnapshot b = RandomSnapshot(p, 0, 2);
  const std::vector<uint8_t> range = b.ExtractNodeRange(2, 9);
  GraphSnapshot content = a;
  GraphSnapshot foreign_sum = RandomSnapshot(other, 0, 3);
  const GraphSnapshot foreign_before = foreign_sum;
  EXPECT_EQ(content.ReplaceSerializedNodeRange(range.data(), range.size(),
                                               &foreign_sum)
                .code(),
            StatusCode::kInvalidArgument);
  GraphSnapshot sum = RandomSnapshot(p, 0, 4);
  const GraphSnapshot sum_before = sum;
  EXPECT_EQ(content.ReplaceSerializedNodeRange(range.data(),
                                               range.size() - 1, &sum)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(content == a);
  EXPECT_TRUE(sum == sum_before);
  EXPECT_TRUE(foreign_sum == foreign_before);
}

TEST(GraphSnapshotTest, NodeRangeDeltaRejectsGarbage) {
  const uint64_t n = 32;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  GraphSnapshot snap = SnapshotOf(n, 3, edges);
  const std::vector<uint8_t> delta = snap.ExtractNodeRange(4, 20);

  // Truncation, trailing garbage, a bad magic and a params mismatch
  // all bounce without touching the snapshot.
  const GraphSnapshot before = snap;
  EXPECT_EQ(snap.MergeSerializedNodeRange(delta.data(), delta.size() - 1)
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<uint8_t> padded = delta;
  padded.push_back(0);
  EXPECT_EQ(
      snap.MergeSerializedNodeRange(padded.data(), padded.size()).code(),
      StatusCode::kInvalidArgument);
  std::vector<uint8_t> bad_magic = delta;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(
      snap.MergeSerializedNodeRange(bad_magic.data(), bad_magic.size())
          .code(),
      StatusCode::kInvalidArgument);
  GraphSnapshot other_seed = SnapshotOf(n, 4, edges);
  EXPECT_EQ(
      other_seed.MergeSerializedNodeRange(delta.data(), delta.size())
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(snap == before);

  // A whole-snapshot byte stream is not a range delta and vice versa.
  const std::vector<uint8_t> full = snap.Serialize();
  EXPECT_EQ(snap.MergeSerializedNodeRange(full.data(), full.size()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(snap.MergeSerialized(delta.data(), delta.size()).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphSnapshotTest, ParallelBoruvkaMatchesSequentialBitwise) {
  // Large enough to cross the engine's parallel thresholds (sampling
  // needs >= 1024 live components in a round).
  const uint64_t n = 2048;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.003;
  ep.seed = 9;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();
  const GraphSnapshot snapshot = SnapshotOf(n, 23, edges);

  const ConnectivityResult seq = Connectivity(snapshot, /*num_threads=*/1);
  const ConnectivityResult par = Connectivity(snapshot, /*num_threads=*/4);
  ASSERT_FALSE(seq.failed);
  ASSERT_FALSE(par.failed);
  EXPECT_EQ(seq.spanning_forest, par.spanning_forest);
  EXPECT_EQ(seq.component_of, par.component_of);
  EXPECT_EQ(seq.num_components, par.num_components);
  EXPECT_EQ(seq.rounds_used, par.rounds_used);

  AdjacencyMatrixChecker checker(n);
  for (const Edge& e : edges) checker.Update({e, UpdateType::kInsert});
  EXPECT_EQ(seq.num_components,
            checker.ConnectedComponents().num_components);
}

TEST(GraphSnapshotTest, MidStreamSnapshotThenContinue) {
  // The snapshot freezes a stream position; the instance keeps
  // ingesting and a later snapshot reflects the extra updates.
  const uint64_t n = 24;
  GraphZeppelin gz(MakeConfig(n, 29));
  ASSERT_TRUE(gz.Init().ok());
  gz.Update({Edge(0, 1), UpdateType::kInsert});
  const GraphSnapshot early = gz.Snapshot();
  gz.Update({Edge(1, 2), UpdateType::kInsert});
  const GraphSnapshot late = gz.Snapshot();

  EXPECT_EQ(early.num_updates(), 1u);
  EXPECT_EQ(late.num_updates(), 2u);
  const ConnectivityResult r_early = Connectivity(early);
  const ConnectivityResult r_late = Connectivity(late);
  EXPECT_FALSE(r_early.Connected(0, 2));
  EXPECT_TRUE(r_late.Connected(0, 2));
}

}  // namespace
}  // namespace gz
