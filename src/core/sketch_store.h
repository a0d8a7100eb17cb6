// Sketch stores: where the V node sketches live during ingestion.
//
// InMemorySketchStore keeps them in RAM. OnDiskSketchStore keeps each
// node's sketch in a fixed-size region of a preallocated file and
// merges batched deltas with read-XOR-write cycles — the hybrid
// streaming model of Section 4, where batching (gutters) amortizes the
// per-update I/O cost.
//
// Thread safety: MergeDelta/Load are safe to call concurrently from
// many Graph Workers; stores lock per node. Following Section 5.1,
// workers accumulate a batch into a private delta sketch and the store
// only holds the lock for the XOR merge.
//
// Change tracking: sketches are linear, so an update changes only the
// sketches of the nodes it touches (a toggle of (u, v) changes exactly
// two). Every mutating call stamps its node with the store's current
// generation, under the node lock it already takes, so no caller can
// forget to mark a change. A reader that copied the store at
// generation g (AdvanceGeneration() returned g, with no writer
// running) later needs exactly the nodes whose stamp exceeds g.
// Nothing is ever cleared, so any number of readers stay exact, each
// keeping its own g. The incarnation, drawn at random when the store
// is built, tells a reader whether its g refers to this store at all.
#ifndef GZ_CORE_SKETCH_STORE_H_
#define GZ_CORE_SKETCH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sketch/node_sketch.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gz {

class SketchStore {
 public:
  virtual ~SketchStore() = default;

  // XOR-merges `delta` (a sketch of a batch of updates) into `node`'s
  // sketch. `delta` must have been built with the store's params.
  virtual void MergeDelta(NodeId node, const NodeSketch& delta) = 0;

  // Copies `node`'s current sketch into `out` (constructed with the
  // store's params). Used by the connectivity query to take a snapshot.
  virtual void Load(NodeId node, NodeSketch* out) = 0;

  // Overwrites `node`'s sketch with `sketch` (params must match).
  // Used by checkpoint restore.
  virtual void Store(NodeId node, const NodeSketch& sketch) = 0;

  // Byte-level forms for record streams (snapshots, checkpoints,
  // migration deltas), with no scratch NodeSketch in between:
  // SerializeNode writes `node`'s record (NodeSketch::SerializeTo
  // layout, record_bytes() long) to `out`; MergeSerializedNode XORs
  // such a record into `node`'s sketch.
  virtual void SerializeNode(NodeId node, uint8_t* out) = 0;
  virtual void MergeSerializedNode(NodeId node, const uint8_t* record) = 0;

  // The generation `node` last changed at (0 = never since the store
  // was built).
  uint64_t stamp(NodeId node) const { return stamps_[node].load(); }
  uint64_t incarnation() const { return incarnation_; }
  // Returns the current generation and moves to the next one: a change
  // made after this call stamps above the returned value. The caller
  // must hold writers off across the read it pairs this with.
  uint64_t AdvanceGeneration() { return generation_.fetch_add(1); }

  virtual size_t RamByteSize() const = 0;
  virtual size_t DiskByteSize() const = 0;

  const NodeSketchParams& params() const { return params_; }
  uint64_t num_nodes() const { return params_.num_nodes; }
  // Serialized bytes of one node sketch (uniform across nodes).
  size_t record_bytes() const { return record_bytes_; }

 protected:
  // Normalizes `params` (rounds may be auto-filled) and sizes the
  // change stamps.
  explicit SketchStore(const NodeSketchParams& params);

  // Records a change to `node`; call under the node's lock.
  void Stamp(NodeId node) { stamps_[node].store(generation_.load()); }
  // The stamps' share of RamByteSize().
  size_t StampBytes() const {
    return params_.num_nodes * sizeof(std::atomic<uint64_t>);
  }

  NodeSketchParams params_;
  size_t record_bytes_ = 0;

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> stamps_;
  std::atomic<uint64_t> generation_{1};
  const uint64_t incarnation_;
};

class InMemorySketchStore : public SketchStore {
 public:
  explicit InMemorySketchStore(const NodeSketchParams& params);

  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  void Store(NodeId node, const NodeSketch& sketch) override;
  void SerializeNode(NodeId node, uint8_t* out) override;
  void MergeSerializedNode(NodeId node, const uint8_t* record) override;
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override { return 0; }

 private:
  std::vector<NodeSketch> sketches_;
  // One lock per node; 40 B each is negligible next to the sketches.
  std::unique_ptr<std::mutex[]> locks_;
};

class OnDiskSketchStore : public SketchStore {
 public:
  OnDiskSketchStore(const NodeSketchParams& params, std::string path);
  ~OnDiskSketchStore() override;

  // Creates and preallocates the backing file (all-zero regions are
  // valid empty sketches). Must be called before use.
  Status Init();

  void MergeDelta(NodeId node, const NodeSketch& delta) override;
  void Load(NodeId node, NodeSketch* out) override;
  void Store(NodeId node, const NodeSketch& sketch) override;
  void SerializeNode(NodeId node, uint8_t* out) override;
  void MergeSerializedNode(NodeId node, const uint8_t* record) override;
  size_t RamByteSize() const override;
  size_t DiskByteSize() const override;

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  // The read-XOR-write cycle of one record; caller holds the node lock.
  void XorIntoRecord(NodeId node, const uint8_t* record);

  std::string path_;
  int fd_ = -1;
  std::unique_ptr<std::mutex[]> locks_;
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace gz

#endif  // GZ_CORE_SKETCH_STORE_H_
