// GraphSnapshot: the first-class, immutable query surface of the
// system — one node sketch per vertex captured at a flush barrier,
// together with the metadata (sketch params, seed, update count) that
// makes the capture self-describing.
//
// Sketch linearity (paper Section 3.1) is what makes this type more
// than a container: snapshots taken from *any* instances built with the
// same seed and geometry can be XOR-merged with Merge(), and the result
// is exactly the snapshot a single instance would have produced for the
// combined stream. That algebra is the sharded coordinator's
// aggregation step, and — via Serialize()/Deserialize() — the natural
// network frame for a multi-process split. Checkpointing is snapshot
// serialization to a file.
//
// All query algorithms (connectivity, spanning-forest decomposition,
// bipartiteness, MSF weight) consume `const GraphSnapshot&` and never
// copy it: Boruvka reads the snapshot's sketches directly and gives a
// component representative a private sum of the rounds still ahead
// only when it first absorbs another (copy-on-write). Only a
// consumed snapshot (the rvalue overloads) is folded in place.
#ifndef GZ_CORE_GRAPH_SNAPSHOT_H_
#define GZ_CORE_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

// Where a reader's copy of one sketch store stands: the store's
// incarnation and the generation its last read saw (see
// core/sketch_store.h). The zero token matches no store, so a read
// from it returns every node — a cold build is just a read from zero.
struct ChangeToken {
  uint64_t incarnation = 0;
  uint64_t generation = 0;

  friend bool operator==(const ChangeToken& a, const ChangeToken& b) {
    return a.incarnation == b.incarnation && a.generation == b.generation;
  }
};

// Writes `node`'s serialized record (NodeSketch::SerializeTo layout) to
// `out`: how the streaming producers below read a sketch store without
// staging each record through a scratch NodeSketch.
using RecordWriter = std::function<void(NodeId node, uint8_t* out)>;

class GraphSnapshot {
 public:
  // Empty snapshot; valid() is false and every other accessor is
  // off-limits until one is move-assigned in.
  GraphSnapshot() = default;

  // Takes ownership of `sketches` (one per vertex, all built with
  // identical params). `num_updates` is the stream position the capture
  // represents.
  GraphSnapshot(std::vector<NodeSketch> sketches, uint64_t num_updates);

  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = default;
  GraphSnapshot& operator=(const GraphSnapshot&) = default;

  bool valid() const { return !sketches_.empty(); }
  const NodeSketchParams& params() const;
  uint64_t num_nodes() const { return sketches_.size(); }
  uint64_t seed() const { return params().seed; }
  int rounds() const { return params().rounds; }
  uint64_t num_updates() const { return num_updates_; }

  const NodeSketch& sketch(NodeId node) const;
  const std::vector<NodeSketch>& sketches() const { return sketches_; }

  // Moves the sketches out, leaving this snapshot empty (valid() ==
  // false). Lets a query consume a temporary snapshot without a second
  // full copy of the sketch state.
  std::vector<NodeSketch> ReleaseSketches();

  // XOR-merges `other` into this snapshot (node-wise sketch sum, update
  // counts add). Fails with InvalidArgument unless both snapshots were
  // built with identical params — same seed, node bound and geometry —
  // since only then is the merge a sketch of the combined stream.
  Status Merge(const GraphSnapshot& other);

  // Node-granular merge: XORs `delta` (a sketch of some update subset
  // for `node`) into that node's sketch. This is the unit a sharded
  // coordinator uses to fold a shard in while materializing only one
  // scratch sketch at a time; call AddUpdates() once per folded source.
  Status MergeNodeDelta(NodeId node, const NodeSketch& delta);
  void AddUpdates(uint64_t count) { num_updates_ += count; }
  // Pins the stream position outright — for aggregators (the snapshot
  // cache) that rebuild sketch content from range deltas, which carry
  // no counts, and know the true total from their own bookkeeping.
  void SetUpdates(uint64_t count) { num_updates_ = count; }

  // --- Serialization -----------------------------------------------------
  // Byte layout: 8-byte magic, params (num_nodes, seed, cols, rounds),
  // update count, then num_nodes fixed-size node-sketch records.
  size_t SerializedSize() const;
  // Same, computed from params alone. A producer streaming records into
  // a length-prefixed frame (e.g. a shard replying over a socket) needs
  // the total before the first record exists.
  static size_t SerializedSizeFor(const NodeSketchParams& params);
  std::vector<uint8_t> Serialize() const;
  static Result<GraphSnapshot> Deserialize(const uint8_t* data, size_t size);

  // Streaming merge from serialized bytes: validates the header, checks
  // params against this snapshot, then XORs each node record into its
  // sketch in place (NodeSketch::MergeSerialized, no scratch sketch) —
  // the coordinator's aggregation of a shard's snapshot reply without
  // materializing a second snapshot.
  // InvalidArgument on malformed bytes or a params mismatch; this
  // snapshot is unchanged on any error.
  Status MergeSerialized(const uint8_t* data, size_t size);

  // --- Node-range deltas ---------------------------------------------------
  // A serialized node-range delta is the sketch content of nodes
  // [lo, hi) under its own magic: 8-byte magic, params, the range
  // bounds, then hi-lo fixed-size node records. It is the unit of
  // elastic shard migration — a departing or splitting shard extracts
  // ranges of its state, the coordinator XOR-folds them into the
  // successor (and XOR-folds the same bytes back into the source to
  // cancel them there, which is how linearity expresses "move").
  //
  // Deltas deliberately carry NO update count: stream positions stay
  // with the shard that ingested the updates, and the coordinator
  // accounts for removed shards separately, so folding a delta never
  // perturbs replay reconciliation.
  static size_t SerializedRangeSizeFor(const NodeSketchParams& params,
                                       uint64_t lo, uint64_t hi);
  // Serializes this snapshot's nodes [lo, hi) as a range delta.
  std::vector<uint8_t> ExtractNodeRange(uint64_t lo, uint64_t hi) const;
  // XOR-folds a serialized range delta into this snapshot, record by
  // record in place. InvalidArgument on malformed bytes or a params
  // mismatch; this snapshot is unchanged on any error. num_updates() is
  // never affected.
  Status MergeSerializedNodeRange(const uint8_t* data, size_t size);
  // Replace-and-fold: overwrites nodes [lo, hi) with a serialized range
  // delta and XORs the change into `sum` in the same pass, per record
  // sum ^= this ^ fresh; this = fresh. One pass over the three arrays
  // is the snapshot cache's whole per-shard refresh (this snapshot is
  // the shard's retained content, `sum` the merged one). Both must
  // share the delta's params; InvalidArgument otherwise, or on
  // malformed bytes, with both snapshots unchanged. Update counts are
  // never affected.
  Status ReplaceSerializedNodeRange(const uint8_t* data, size_t size,
                                    GraphSnapshot* sum);
  // Streaming producer of the ExtractNodeRange byte stream (header
  // first, then one record per `record` call) — how a shard streams a
  // migration delta into a socket frame without materializing it.
  static Status SaveRangeToSink(
      const std::function<Status(const void* data, size_t size)>& sink,
      const NodeSketchParams& params, uint64_t lo, uint64_t hi,
      const RecordWriter& record);
  // Validates a range delta's header against `expect_params` and
  // returns its bounds; the payload must cover exactly hi-lo records.
  // `payload_offset` (optional) receives where the records start, so
  // consumers never re-derive the header size.
  static Status ParseSerializedNodeRange(const uint8_t* data, size_t size,
                                         const NodeSketchParams& expect_params,
                                         uint64_t* lo, uint64_t* hi,
                                         size_t* payload_offset = nullptr);

  // --- Changed-range streams -----------------------------------------------
  // The answer to a changed-only read of a sketch store
  // (GraphZeppelin::WriteChangedNodeRangesTo): a prefix {incarnation,
  // generation, record count} — the token the reader keeps for its
  // next read — then that many node-range deltas, one per maximal run
  // of nodes that changed since the reader's token.
  static constexpr size_t kChangedRangesPrefixBytes = 3 * sizeof(uint64_t);
  static void WriteChangedRangesPrefix(const ChangeToken& now,
                                       uint64_t records, uint8_t* out);
  // Replace-and-folds every record of a changed-range stream
  // (ReplaceSerializedNodeRange per record) and returns the stream's
  // token. The prefix and every record are validated
  // before the first fold: InvalidArgument on malformed bytes or a
  // params mismatch, with both snapshots unchanged.
  Status ReplaceChangedNodeRanges(const uint8_t* data, size_t size,
                                  GraphSnapshot* sum, ChangeToken* now);

  // Generalized streaming producer: writes the exact Serialize() byte
  // stream through `sink` (header first, then one node record per call)
  // with only one record materialized at a time. SaveStream is this with
  // a file sink; a shard uses a socket sink to stream a snapshot into
  // its reply frame.
  static Status SaveToSink(
      const std::function<Status(const void* data, size_t size)>& sink,
      const NodeSketchParams& params, uint64_t num_updates,
      const RecordWriter& record);

  // File forms, used by checkpointing. LoadFromFile distinguishes a
  // missing file (NotFound), a malformed header (InvalidArgument) and a
  // short body (IoError).
  Status SaveToFile(const std::string& path) const;
  static Result<GraphSnapshot> LoadFromFile(const std::string& path);

  // Streaming file forms: identical file format, but only one node
  // record is in flight, for producers/consumers that cannot afford a
  // materialized snapshot (e.g. checkpointing an out-of-core sketch
  // store). SaveStream pulls each node's record from `record`;
  // LoadStream validates the header against `expect_params`
  // (InvalidArgument on mismatch), hands each record to `store`, and
  // returns the saved update count. `offset` skips a caller-owned
  // prefix first — how a shard checkpoint embeds a snapshot stream
  // after its own header.
  static Status SaveStream(const std::string& path,
                           const NodeSketchParams& params,
                           uint64_t num_updates, const RecordWriter& record);
  static Status LoadStream(
      const std::string& path, const NodeSketchParams& expect_params,
      uint64_t* num_updates,
      const std::function<void(NodeId, const NodeSketch&)>& store,
      size_t offset = 0);

  friend bool operator==(const GraphSnapshot& a, const GraphSnapshot& b) {
    return a.num_updates_ == b.num_updates_ && a.sketches_ == b.sketches_;
  }

 private:
  uint64_t num_updates_ = 0;
  std::vector<NodeSketch> sketches_;
};

}  // namespace gz

#endif  // GZ_CORE_GRAPH_SNAPSHOT_H_
