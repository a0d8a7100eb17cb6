// SnapshotCache plan/refresh agreement: PlannedPulls() must predict
// EXACTLY the pulls Refresh() makes at the same (epoch, marks) — the
// two consult one shared needs-pull predicate, and QuerySession's
// seqlock depends on the plan being exact (it pre-stages one buffer
// per planned pull; an unplanned pull inside Refresh would fail the
// refresh, a planned-but-skipped one would leak a stale stage).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/graph_zeppelin.h"
#include "core/snapshot_cache.h"

namespace gz {
namespace {

constexpr uint64_t kNodes = 24;
constexpr uint64_t kSeed = 1234;

GraphZeppelinConfig Config() {
  GraphZeppelinConfig c;
  c.num_nodes = kNodes;
  c.seed = kSeed;  // Every shard shares the seed — mergeable sketches.
  c.disk_dir = ::testing::TempDir();
  return c;
}

// The in-process form of a shard's changed-only pull.
Status PullChanged(GraphZeppelin& shard, uint64_t lo, uint64_t hi,
                   const ChangeToken& since, std::vector<uint8_t>* changed) {
  changed->clear();
  return shard.WriteChangedNodeRangesTo(
      lo, hi, since, [](size_t) { return Status::Ok(); },
      [changed](const void* data, size_t size) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        changed->insert(changed->end(), p, p + size);
        return Status::Ok();
      });
}

// A toy "cluster": per-shard in-process instances, watermarks tracked
// the way a coordinator tracks them (ingested count, delta_seq 0).
class SnapshotCachePlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int s = 0; s < 3; ++s) AddShard();
    // A path spread across the shards: 0-1-2-...-8.
    Ingest(0, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    Ingest(1, {{Edge(3, 4), UpdateType::kInsert},
               {Edge(4, 5), UpdateType::kInsert}});
    Ingest(2, {{Edge(5, 6), UpdateType::kInsert},
               {Edge(6, 7), UpdateType::kInsert},
               {Edge(7, 8), UpdateType::kInsert}});
  }

  void AddShard() {
    shards_.push_back(std::make_unique<GraphZeppelin>(Config()));
    ASSERT_TRUE(shards_.back()->Init().ok());
  }

  void Ingest(int shard, const std::vector<GraphUpdate>& updates) {
    for (const GraphUpdate& u : updates) shards_[shard]->Update(u);
    shards_[shard]->Flush();
    if (logs_.size() <= static_cast<size_t>(shard)) logs_.resize(shard + 1);
    logs_[shard].insert(logs_[shard].end(), updates.begin(), updates.end());
  }

  // A restarted shard: a new instance (a new store, so a new
  // incarnation) that replays the shard's log to the same content.
  void Restart(int shard) {
    shards_[shard] = std::make_unique<GraphZeppelin>(Config());
    ASSERT_TRUE(shards_[shard]->Init().ok());
    for (const GraphUpdate& u : logs_[shard]) shards_[shard]->Update(u);
    shards_[shard]->Flush();
  }

  // Bytes of a changed-range stream carrying one single-node record
  // per entry of `nodes` (none adjacent), pulled in `chunks` chunks.
  size_t StreamBytes(const std::vector<uint64_t>& nodes, int chunks) const {
    size_t bytes = chunks * GraphSnapshot::kChangedRangesPrefixBytes;
    for (const uint64_t v : nodes) {
      bytes += GraphSnapshot::SerializedRangeSizeFor(
          shards_[0]->sketch_params(), v, v + 1);
    }
    return bytes;
  }

  // Refresh through the in-process changed-only puller.
  void Refresh(SnapshotCache* cache, uint64_t epoch,
               const ShardWatermarks& marks) {
    const Status s = cache->Refresh(
        epoch, marks, 0, shards_[0]->sketch_params(),
        [this](int shard, uint64_t lo, uint64_t hi, const ChangeToken& since,
               std::vector<uint8_t>* changed) {
          return PullChanged(*shards_[shard], lo, hi, since, changed);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  // The cluster position over the live (non-vanished) shards.
  ShardWatermarks Marks(const std::vector<int>& live) const {
    ShardWatermarks marks;
    for (const int s : live) {
      ShardWatermark mark;
      mark.num_updates = shards_[s]->num_updates_ingested();
      marks.emplace(s, mark);
    }
    return marks;
  }

  // Refresh + the assertion under test: the shards the puller was
  // actually asked for are exactly PlannedPulls(), in count AND in
  // identity (nodes_per_chunk = 0, so one pull per pulled shard).
  void RefreshAndCheckPlan(uint64_t epoch, const ShardWatermarks& marks) {
    std::vector<int> plan = cache_.PlannedPulls(epoch, marks);
    const uint64_t pulls_before = cache_.range_pulls();
    std::vector<int> pulled;
    const Status s = cache_.Refresh(
        epoch, marks, /*total_updates=*/0, shards_[0]->sketch_params(),
        [this, &pulled](int shard, uint64_t lo, uint64_t hi,
                        const ChangeToken& since,
                        std::vector<uint8_t>* changed) {
          pulled.push_back(shard);
          return PullChanged(*shards_[shard], lo, hi, since, changed);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::sort(plan.begin(), plan.end());
    std::sort(pulled.begin(), pulled.end());
    EXPECT_EQ(pulled, plan);
    EXPECT_EQ(cache_.range_pulls() - pulls_before, plan.size());
  }

  // Bitwise ground truth: the cached merged snapshot must equal the
  // XOR-fold of the live shards' current snapshots.
  void CheckMergedBitwise(const std::vector<int>& live) {
    CheckMergedBitwise(cache_, live);
  }
  void CheckMergedBitwise(const SnapshotCache& cache,
                          const std::vector<int>& live) {
    GraphSnapshot want = shards_[live[0]]->Snapshot();
    for (size_t i = 1; i < live.size(); ++i) {
      const std::vector<uint8_t> bytes =
          shards_[live[i]]->Snapshot().ExtractNodeRange(0, kNodes);
      ASSERT_TRUE(
          want.MergeSerializedNodeRange(bytes.data(), bytes.size()).ok());
    }
    EXPECT_EQ(want.ExtractNodeRange(0, kNodes),
              cache.merged().ExtractNodeRange(0, kNodes));
  }

  std::vector<std::unique_ptr<GraphZeppelin>> shards_;
  std::vector<std::vector<GraphUpdate>> logs_;
  SnapshotCache cache_{/*nodes_per_chunk=*/0};
};

TEST_F(SnapshotCachePlanTest, PlanPredictsPullsThroughCacheLifecycle) {
  // Cold build: every shard with a nonzero watermark is planned.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    std::vector<int> plan = cache_.PlannedPulls(1, marks);
    std::sort(plan.begin(), plan.end());
    EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // No-op refresh at the same position: empty plan, zero pulls.
  {
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_TRUE(cache_.PlannedPulls(1, marks).empty());
    RefreshAndCheckPlan(1, marks);
  }
  // One shard moves: the plan names it alone.
  {
    Ingest(1, {{Edge(9, 10), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({0, 1, 2});
    EXPECT_EQ(cache_.PlannedPulls(1, marks), std::vector<int>{1});
    RefreshAndCheckPlan(1, marks);
    CheckMergedBitwise({0, 1, 2});
  }
  // A brand-new shard at the zero watermark: its content is still the
  // XOR identity, so it is installed WITHOUT a pull — not planned.
  {
    AddShard();
    const ShardWatermarks marks = Marks({0, 1, 2, 3});
    EXPECT_TRUE(cache_.PlannedPulls(2, marks).empty());
    RefreshAndCheckPlan(2, marks);
  }
  // A vanished shard (removed from the table, content migrated to a
  // survivor): cancelled from retained content, never pulled — only
  // the survivor whose watermark moved is planned. Linearity lets the
  // test "migrate" by re-ingesting the vanished shard's updates into
  // the survivor: the fold is the same XOR either way.
  {
    Ingest(2, {{Edge(0, 1), UpdateType::kInsert},
               {Edge(1, 2), UpdateType::kInsert},
               {Edge(2, 3), UpdateType::kInsert}});
    const ShardWatermarks marks = Marks({1, 2, 3});
    EXPECT_EQ(cache_.PlannedPulls(3, marks), std::vector<int>{2});
    RefreshAndCheckPlan(3, marks);
    CheckMergedBitwise({1, 2, 3});
  }
}

TEST_F(SnapshotCachePlanTest, InvalidatedCachePlansEveryShard) {
  RefreshAndCheckPlan(1, Marks({0, 1, 2}));
  cache_.Invalidate();
  // After invalidation nothing is recorded: every nonzero-watermark
  // shard is planned again (and a zero-watermark one still is not).
  AddShard();
  const ShardWatermarks marks = Marks({0, 1, 2, 3});
  std::vector<int> plan = cache_.PlannedPulls(1, marks);
  std::sort(plan.begin(), plan.end());
  EXPECT_EQ(plan, (std::vector<int>{0, 1, 2}));
  RefreshAndCheckPlan(1, marks);
  CheckMergedBitwise({0, 1, 2, 3});
}

TEST_F(SnapshotCachePlanTest, OneEdgeToggleRefreshesItsTwoEndpointRecords) {
  const ShardWatermarks cold = Marks({0, 1, 2});
  RefreshAndCheckPlan(1, cold);
  // Edge (4, 17) toggled on shard 1: the refresh pulls shard 1 alone,
  // and from it exactly the records of nodes 4 and 17.
  for (const UpdateType type : {UpdateType::kInsert, UpdateType::kDelete}) {
    Ingest(1, {{Edge(4, 17), type}});
    const uint64_t bytes = cache_.pulled_bytes();
    RefreshAndCheckPlan(1, Marks({0, 1, 2}));
    EXPECT_EQ(cache_.pulled_bytes() - bytes, StreamBytes({4, 17}, 1));
    CheckMergedBitwise({0, 1, 2});
  }
  // Chunked pulls: one RPC per chunk still, but only the changed
  // records travel.
  SnapshotCache chunked(/*nodes_per_chunk=*/5);
  Refresh(&chunked, 1, Marks({0, 1, 2}));
  Ingest(2, {{Edge(1, 22), UpdateType::kInsert}});
  const uint64_t pulls = chunked.range_pulls();
  const uint64_t bytes = chunked.pulled_bytes();
  Refresh(&chunked, 1, Marks({0, 1, 2}));
  EXPECT_EQ(chunked.range_pulls() - pulls, 5u);  // ceil(24 / 5) chunks.
  EXPECT_EQ(chunked.pulled_bytes() - bytes, StreamBytes({1, 22}, 5));
  CheckMergedBitwise(chunked, {0, 1, 2});
}

TEST_F(SnapshotCachePlanTest, BulkIngestRestartAndInvalidateStayExact) {
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  const size_t full = GraphSnapshot::kChangedRangesPrefixBytes +
                      GraphSnapshot::SerializedRangeSizeFor(
                          shards_[0]->sketch_params(), 0, kNodes);
  // Bulk ingest on two shards: exact, and never more than full pulls.
  std::vector<GraphUpdate> bulk;
  for (NodeId v = 9; v + 1 < kNodes; ++v) {
    bulk.push_back({Edge(v, v + 1), UpdateType::kInsert});
  }
  Ingest(0, bulk);
  Ingest(2, {{Edge(0, 23), UpdateType::kInsert}});
  uint64_t bytes = cache_.pulled_bytes();
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  EXPECT_LE(cache_.pulled_bytes() - bytes, 2 * full);
  CheckMergedBitwise({0, 1, 2});

  // A restarted shard is a new store: its token matches nothing, so the
  // refresh pulls all of it once, then goes back to changed-only pulls.
  Restart(1);
  Ingest(1, {{Edge(2, 20), UpdateType::kInsert}});
  bytes = cache_.pulled_bytes();
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  EXPECT_EQ(cache_.pulled_bytes() - bytes, full);
  CheckMergedBitwise({0, 1, 2});
  Ingest(1, {{Edge(2, 20), UpdateType::kDelete}});
  bytes = cache_.pulled_bytes();
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  EXPECT_EQ(cache_.pulled_bytes() - bytes, StreamBytes({2, 20}, 1));
  CheckMergedBitwise({0, 1, 2});

  // Invalidate drops every token: the next refresh is a cold build of
  // full pulls through the same path.
  cache_.Invalidate();
  EXPECT_EQ(cache_.change_token(0), ChangeToken{});
  bytes = cache_.pulled_bytes();
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  EXPECT_EQ(cache_.pulled_bytes() - bytes, 3 * full);
  CheckMergedBitwise({0, 1, 2});
}

TEST_F(SnapshotCachePlanTest, ChunksFromDifferentStoresKeepTheZeroToken) {
  // A failover between two chunks of one shard: chunk 0 comes from the
  // shard, chunk 1 from a bitwise-equal replica (another store). The
  // content is exact either way, but no single token describes it, so
  // the next pull of that shard is a full one.
  SnapshotCache cache(/*nodes_per_chunk=*/12);
  GraphZeppelin replica(Config());
  ASSERT_TRUE(replica.Init().ok());
  for (const GraphUpdate& u : logs_[1]) replica.Update(u);
  const auto refresh = [&](bool failover) {
    const Status s = cache.Refresh(
        1, Marks({0, 1, 2}), 0, shards_[0]->sketch_params(),
        [&](int shard, uint64_t lo, uint64_t hi, const ChangeToken& since,
            std::vector<uint8_t>* changed) {
          GraphZeppelin& from =
              failover && shard == 1 && lo > 0 ? replica : *shards_[shard];
          return PullChanged(from, lo, hi, since, changed);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
  };
  refresh(false);
  Ingest(1, {{Edge(3, 15), UpdateType::kInsert}});
  replica.Update({Edge(3, 15), UpdateType::kInsert});
  refresh(true);
  CheckMergedBitwise(cache, {0, 1, 2});
  EXPECT_EQ(cache.change_token(1), ChangeToken{});
  Ingest(1, {{Edge(3, 15), UpdateType::kDelete}});
  const uint64_t bytes = cache.pulled_bytes();
  refresh(false);
  const NodeSketchParams& params = shards_[0]->sketch_params();
  EXPECT_EQ(cache.pulled_bytes() - bytes,
            2 * GraphSnapshot::kChangedRangesPrefixBytes +
                GraphSnapshot::SerializedRangeSizeFor(params, 0, 12) +
                GraphSnapshot::SerializedRangeSizeFor(params, 12, kNodes));
  CheckMergedBitwise(cache, {0, 1, 2});
}

TEST_F(SnapshotCachePlanTest, ChangesBetweenChunkPullsArePulledNextTime) {
  // One shard pulled in two chunks, with a write landing on chunk 0's
  // nodes after chunk 0 was pulled but before chunk 1 was. The token
  // kept is chunk 0's, so the next refresh still sees that write (a
  // token from chunk 1 would have hidden it for good).
  SnapshotCache cache(/*nodes_per_chunk=*/12);
  Refresh(&cache, 1, Marks({0, 1, 2}));
  Ingest(1, {{Edge(13, 20), UpdateType::kInsert}});
  const ShardWatermarks moved = Marks({0, 1, 2});
  const Status s = cache.Refresh(
      1, moved, 0, shards_[0]->sketch_params(),
      [&](int shard, uint64_t lo, uint64_t hi, const ChangeToken& since,
          std::vector<uint8_t>* changed) {
        if (shard == 1 && lo == 12) {
          Ingest(1, {{Edge(2, 5), UpdateType::kInsert}});
        }
        return PullChanged(*shards_[shard], lo, hi, since, changed);
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  Refresh(&cache, 1, Marks({0, 1, 2}));
  CheckMergedBitwise(cache, {0, 1, 2});
}

TEST_F(SnapshotCachePlanTest, InterleavedConsumersOfOneShardStayExact) {
  // No reader clears anything: two caches reading the same shards in
  // any interleaving each see exactly the changes since their own
  // last read.
  SnapshotCache other(/*nodes_per_chunk=*/7);
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  for (int step = 0; step < 6; ++step) {
    const NodeId u = static_cast<NodeId>(step);
    Ingest(step % 3, {{Edge(u, u + 12), UpdateType::kInsert}});
    if (step % 2 == 0) {
      Refresh(&other, 1, Marks({0, 1, 2}));
      CheckMergedBitwise(other, {0, 1, 2});
    } else {
      Refresh(&cache_, 1, Marks({0, 1, 2}));
      CheckMergedBitwise({0, 1, 2});
    }
  }
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  Refresh(&other, 1, Marks({0, 1, 2}));
  CheckMergedBitwise({0, 1, 2});
  CheckMergedBitwise(other, {0, 1, 2});
}

TEST_F(SnapshotCachePlanTest, MalformedChangedStreamInvalidatesTheCache) {
  Refresh(&cache_, 1, Marks({0, 1, 2}));
  Ingest(0, {{Edge(6, 7), UpdateType::kInsert}});
  std::vector<uint8_t> good;
  const ChangeToken since = cache_.change_token(0);
  ASSERT_TRUE(PullChanged(*shards_[0], 0, kNodes, since, &good).ok());
  std::vector<std::vector<uint8_t>> bad;
  bad.emplace_back(good.begin(), good.end() - 1);  // Truncated record.
  bad.push_back(good);
  bad.back().push_back(0);                          // Trailing byte.
  bad.push_back(good);
  bad.back()[16] = 2;                               // Record count 2 of 1.
  bad.emplace_back(good.begin(), good.begin() + 10);  // Short prefix.
  for (const std::vector<uint8_t>& bytes : bad) {
    SnapshotCache cache(/*nodes_per_chunk=*/0);
    Refresh(&cache, 1, Marks({0, 1, 2}));
    ShardWatermarks moved = Marks({0, 1, 2});
    ++moved[0].delta_seq;
    const Status s = cache.Refresh(
        1, moved, 0, shards_[0]->sketch_params(),
        [&](int, uint64_t, uint64_t, const ChangeToken&,
            std::vector<uint8_t>* changed) {
          *changed = bytes;
          return Status::Ok();
        });
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(cache.valid());
  }
}

}  // namespace
}  // namespace gz
