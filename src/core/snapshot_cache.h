// SnapshotCache: the epoch-versioned merged-snapshot cache behind the
// serving tier. The expensive query object in a sharded deployment is
// the merged GraphSnapshot — today every query re-pulls and re-folds
// every shard. The cache keeps that merged snapshot alive between
// queries, keyed by the cluster's exact position:
//
//   key = (routing-table epoch, per-shard watermark)
//   watermark = (updates ingested, migration deltas folded)
//
// Both watermark components matter: a migration delta changes a
// shard's sketch *content* without changing its update count, so
// (epoch, updates) alone would serve stale bytes mid-reshard. Given
// FIFO per-shard sockets, a shard's sketch state is a pure function of
// its watermark — which is what makes the key sound.
//
// Refresh is incremental twice over. Across shards, only the shards
// whose watermark moved are pulled. Within a shard, only the nodes that
// changed are: each shard's sketch store stamps every node it changes
// with a monotone generation (core/sketch_store.h), and the cache keeps
// per shard the change token {store incarnation, generation} of its
// last pull. A pull sends that token and receives a changed-range
// stream — one node-range record per maximal run of nodes changed
// since — plus the token for the next pull. A one-edge toggle thus
// refreshes two node records, not the whole shard. The zero token (a
// new or invalidated shard) and a token from another store (a
// restarted shard, a failover to another replica) match nothing, so
// such a pull returns every node: cold builds run the same path. When
// one shard is pulled in several chunks, the token kept is the first
// chunk's: a change landing on an already-pulled chunk before a later
// chunk's pull stamps above it, so the next pull still sees it (and
// harmlessly re-pulls what the later chunks already carried). Chunks
// that came from different stores keep the zero token.
//
// Each record is folded by the same XOR linearity as elastic
// migration. The cache retains each shard's last-known content C_s next
// to the merged snapshot M = XOR over s of C_s. When a node of shard s
// moves from content A to content B, M must become M ^ A ^ B, and C_s
// must become B. Both happen in ONE pass per pulled record: for every
// bucket word,
//
//   M ^= C_s ^ fresh;  C_s = fresh;
//
// (GraphSnapshot::ReplaceSerializedNodeRange). Nothing of the old
// content is extracted or serialized, and no record is deserialized
// into a scratch sketch. A shard that vanished from the table (removed;
// its content migrated away) has true content zero, so M ^= C_s
// cancels it: one in-memory Merge, no pull.
//
// Cost model: memory is (num_shards + 1) x one snapshot (per-shard
// content + the merged result), plus one pulled chunk of scratch (kept
// across refreshes so that steady-state pulls reuse its pages). A
// refresh is one pass over the records of the nodes that changed, so
// its traffic and time are proportional to the nodes changed since the
// last pull — two records for a one-edge toggle — plus one pull RPC
// per chunk of each moved shard. Queries between watermarks are O(1) —
// they never touch the ingest path.
//
// Not thread-safe; the owner (ShardCluster, ShardedGraphZeppelin,
// QuerySession) serializes access like every other coordinator call.
#ifndef GZ_CORE_SNAPSHOT_CACHE_H_
#define GZ_CORE_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/graph_snapshot.h"
#include "sketch/node_sketch.h"
#include "util/status.h"

namespace gz {

// One shard's position: stream updates ingested + migration deltas
// folded. Equal watermarks (same epoch) imply bitwise-equal sketch
// content.
struct ShardWatermark {
  uint64_t num_updates = 0;
  uint64_t delta_seq = 0;

  friend bool operator==(const ShardWatermark& a, const ShardWatermark& b) {
    return a.num_updates == b.num_updates && a.delta_seq == b.delta_seq;
  }
  friend bool operator!=(const ShardWatermark& a, const ShardWatermark& b) {
    return !(a == b);
  }
};

// The cluster's full position; what the cache is keyed by.
using ShardWatermarks = std::map<int, ShardWatermark>;

class SnapshotCache {
 public:
  // Pulls the changed-range stream (GraphSnapshot's format, as
  // GraphZeppelin::WriteChangedNodeRangesTo writes it) of `shard`'s
  // nodes [lo, hi) since `since` into *changed: the current records of
  // every node changed after `since`, and the token for the next pull.
  // The cache never cares where the bytes come from: a live RPC, an
  // in-process extract, or a pre-staged buffer.
  using RangePuller = std::function<Status(
      int shard, uint64_t lo, uint64_t hi, const ChangeToken& since,
      std::vector<uint8_t>* changed)>;

  // `nodes_per_chunk` bounds refresh scratch: each pull covers at most
  // this many nodes, so delta buffers stay small regardless of graph
  // size. 0 = one chunk per shard.
  explicit SnapshotCache(uint64_t nodes_per_chunk = 1 << 14)
      : nodes_per_chunk_(nodes_per_chunk) {}

  bool valid() const { return merged_.valid(); }

  // True iff the cached merged snapshot is exactly the cluster state at
  // (epoch, marks) — a query can be answered with zero pulls.
  bool Fresh(uint64_t epoch, const ShardWatermarks& marks) const {
    return valid() && epoch == epoch_ && marks == marks_;
  }

  // The shards Refresh(epoch, marks, ...) would pull content from —
  // callers that pre-stage pull buffers (QuerySession's consistency
  // protocol) need the exact set. Empty when Fresh().
  std::vector<int> PlannedPulls(uint64_t epoch,
                                const ShardWatermarks& marks) const;
  // The token the next pull of `shard` sends (the zero token when the
  // cache holds nothing of it). A pre-staging caller pulls with it; a
  // staged stream offered to Refresh under any other token is refused.
  ChangeToken change_token(int shard) const;

  // Brings the merged snapshot to (epoch, marks): cancels vanished
  // shards, delta-refreshes moved ones (chunked pulls through
  // `puller`), installs new ones, then pins the update count to
  // `total_updates` (range deltas carry no counts; the owner's
  // bookkeeping is the truth). On any pull/fold error the cache is
  // invalidated — a half-applied refresh must never serve.
  Status Refresh(uint64_t epoch, const ShardWatermarks& marks,
                 uint64_t total_updates, const NodeSketchParams& params,
                 const RangePuller& puller);

  // The served snapshot; only meaningful when valid().
  const GraphSnapshot& merged() const { return merged_; }
  // The routing epoch the cached snapshot is keyed at (0 before the
  // first refresh). With merged().num_updates(), the position a
  // standing-query notification reports.
  uint64_t epoch() const { return epoch_; }

  void Invalidate();

  // Observability for tests and the serving bench.
  uint64_t refreshes() const { return refreshes_; }
  uint64_t cold_builds() const { return cold_builds_; }
  // Pull RPCs made (one per chunk of each pulled shard), and the bytes
  // they returned.
  uint64_t range_pulls() const { return range_pulls_; }
  uint64_t pulled_bytes() const { return pulled_bytes_; }

 private:
  // THE needs-pull predicate — the single definition both
  // PlannedPulls() and Refresh() consult, so the plan can never drift
  // from the pulls actually performed. A shard needs a pull when its
  // watermark differs from the recorded one; a shard the cache has no
  // record of needs one exactly when its content can be nonzero (a
  // zero watermark means a brand-new shard whose content is still the
  // XOR identity).
  bool NeedsPull(int shard, const ShardWatermark& mark) const {
    const auto it = marks_.find(shard);
    const bool known = valid() && it != marks_.end();
    return known ? it->second != mark : mark != ShardWatermark{};
  }

  // What the cache keeps of one shard: its last-known content, as a
  // same-params snapshot (update count unused) — the XOR "cancel"
  // material for the next refresh — and the change token it was pulled
  // at.
  struct RetainedShard {
    GraphSnapshot content;
    ChangeToken token;
  };

  // Pulls `shard`'s changes since its token chunk by chunk and
  // replace-and-folds each record: the merged snapshot swaps the old
  // node content for the new, and the retained content becomes the
  // new, in one pass per record.
  Status PullShard(int shard, const NodeSketchParams& params,
                   const RangePuller& puller);

  uint64_t nodes_per_chunk_;
  uint64_t epoch_ = 0;
  ShardWatermarks marks_;
  GraphSnapshot merged_;
  std::map<int, RetainedShard> retained_;
  // The one pulled chunk in flight. Kept across refreshes (cleared, not
  // freed) so a puller that fills it in place reuses its pages.
  std::vector<uint8_t> pull_buf_;

  uint64_t refreshes_ = 0;
  uint64_t cold_builds_ = 0;
  uint64_t range_pulls_ = 0;
  uint64_t pulled_bytes_ = 0;
};

}  // namespace gz

#endif  // GZ_CORE_SNAPSHOT_CACHE_H_
