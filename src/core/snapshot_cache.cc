#include "core/snapshot_cache.h"

#include <algorithm>
#include <utility>

namespace gz {
namespace {

// A same-params all-zero snapshot: the XOR identity, and the starting
// content of every shard the cache has not pulled from yet.
GraphSnapshot ZeroSnapshot(const NodeSketchParams& params) {
  return GraphSnapshot(
      std::vector<NodeSketch>(params.num_nodes, NodeSketch(params)), 0);
}

}  // namespace

std::vector<int> SnapshotCache::PlannedPulls(
    uint64_t epoch, const ShardWatermarks& marks) const {
  (void)epoch;  // Content is a function of per-shard marks alone; the
                // epoch only versions the key.
  std::vector<int> pulls;
  for (const auto& [shard, mark] : marks) {
    if (NeedsPull(shard, mark)) pulls.push_back(shard);
  }
  return pulls;
}

ChangeToken SnapshotCache::change_token(int shard) const {
  const auto it = retained_.find(shard);
  return valid() && it != retained_.end() ? it->second.token : ChangeToken{};
}

Status SnapshotCache::PullShard(int shard, const NodeSketchParams& params,
                                const RangePuller& puller) {
  RetainedShard& retained = retained_.at(shard);
  const ChangeToken since = retained.token;
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t step =
      nodes_per_chunk_ == 0 ? num_nodes : nodes_per_chunk_;
  std::vector<uint8_t>& fresh = pull_buf_;
  ChangeToken kept;
  for (uint64_t lo = 0; lo < num_nodes; lo += step) {
    const uint64_t hi = std::min(num_nodes, lo + step);
    fresh.clear();
    Status s = puller(shard, lo, hi, since, &fresh);
    if (!s.ok()) return s;
    ++range_pulls_;
    pulled_bytes_ += fresh.size();
    // The transition old -> new in one pass per changed record: the
    // merged snapshot drops the old record and gains the new one
    // (merged ^= old ^ fresh), and the retained content becomes the
    // fresh record.
    ChangeToken now;
    s = retained.content.ReplaceChangedNodeRanges(fresh.data(), fresh.size(),
                                                  &merged_, &now);
    if (!s.ok()) return s;
    if (lo == 0) {
      kept = now;
    } else if (now.incarnation != kept.incarnation) {
      kept = ChangeToken{};
    }
  }
  retained.token = kept;
  return Status::Ok();
}

Status SnapshotCache::Refresh(uint64_t epoch, const ShardWatermarks& marks,
                              uint64_t total_updates,
                              const NodeSketchParams& caller_params,
                              const RangePuller& puller) {
  // Normalize rounds = 0 ("pick the default") to its resolved value:
  // snapshots and range-delta headers always carry the resolved count,
  // and an unresolved params here would read as a geometry change and
  // force a cold rebuild on every refresh.
  NodeSketchParams params = caller_params;
  if (params.rounds <= 0) {
    params.rounds = NodeSketch::DefaultRounds(params.num_nodes);
  }
  if (!valid() || !(merged_.params() == params)) {
    Invalidate();
    merged_ = ZeroSnapshot(params);
    ++cold_builds_;
  }
  ++refreshes_;
  // Vanished shards (removed from the table; their content migrated to
  // survivors, whose watermarks moved): the shard's true final state is
  // zero, so one more fold of its last-known content cancels it out of
  // the merged snapshot.
  for (auto it = retained_.begin(); it != retained_.end();) {
    if (marks.count(it->first) > 0) {
      ++it;
      continue;
    }
    const Status s = merged_.Merge(it->second.content);
    if (!s.ok()) {
      Invalidate();
      return s;
    }
    it = retained_.erase(it);
  }
  // New and moved shards, pulled exactly when the shared NeedsPull
  // predicate says so — the same predicate PlannedPulls() consulted, so
  // a pre-staging caller's plan always matches the pulls made here. A
  // shard whose watermark is unchanged is skipped outright (its sketch
  // content cannot have changed); a brand-new shard at the zero
  // watermark is installed as the XOR identity (zero token) without a
  // pull.
  for (const auto& [shard, mark] : marks) {
    if (retained_.find(shard) == retained_.end()) {
      retained_.emplace(shard, RetainedShard{ZeroSnapshot(params), {}});
    }
    if (!NeedsPull(shard, mark)) continue;
    const Status s = PullShard(shard, params, puller);
    if (!s.ok()) {
      Invalidate();
      return s;
    }
  }
  // Range deltas carry no update counts by design; the owner's durable
  // bookkeeping supplies the stream position.
  merged_.SetUpdates(total_updates);
  epoch_ = epoch;
  marks_ = marks;
  return Status::Ok();
}

void SnapshotCache::Invalidate() {
  merged_ = GraphSnapshot();
  retained_.clear();
  marks_.clear();
  epoch_ = 0;
}

}  // namespace gz
