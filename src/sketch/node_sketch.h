// Node sketch ("supernode"): the per-vertex sketching state of
// StreamingCC / GraphZeppelin (paper Section 2.2). Each vertex keeps
// `rounds` independent CubeSketches of its characteristic vector — one
// per round of Boruvka's algorithm, because querying a sketch and then
// merging based on the answer makes later queries adaptive.
//
// All node sketches in one graph share hash seeds per (round, column):
// that is what makes cross-node merging (summing sketches of a connected
// component) yield a sketch of the component's cut vector.
#ifndef GZ_SKETCH_NODE_SKETCH_H_
#define GZ_SKETCH_NODE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sketch/cube_sketch.h"
#include "sketch/sketch_sample.h"

namespace gz {

struct NodeSketchParams {
  uint64_t num_nodes = 0;  // U: upper bound on the number of vertices.
  uint64_t seed = 0;       // Graph-level seed; shared by every vertex.
  int cols = 7;            // Columns per CubeSketch.
  int rounds = 0;          // 0 = DefaultRounds(num_nodes).

  friend bool operator==(const NodeSketchParams& a,
                         const NodeSketchParams& b) {
    return a.num_nodes == b.num_nodes && a.seed == b.seed &&
           a.cols == b.cols && a.rounds == b.rounds;
  }
};

class NodeSketch {
 public:
  explicit NodeSketch(const NodeSketchParams& params);

  // Number of Boruvka rounds supported: ceil(log_{3/2} V), following the
  // paper's failure check in list_spanning_forest().
  static int DefaultRounds(uint64_t num_nodes);

  // Applies one edge-index toggle to every round's subsketch.
  void Update(uint64_t edge_index);

  // Applies a batch of edge-index toggles to every round in one
  // sketch-kernel call (NodeSketchUpdateBatch, sketch_kernel.h): the
  // span is bounds-checked once, then each chunk of indices is premixed
  // once and hashed for all rounds and columns through the active SIMD
  // kernel. The ingest workers' delta sketches go through exactly this
  // path. Bitwise-identical to calling Update() per index.
  void UpdateBatch(const uint64_t* indices, size_t count);

  // Samples an incident (cut) edge index from round `round`'s subsketch.
  SketchSample Query(int round) const;

  // Elementwise merge; both sketches must share params (and hence seeds).
  void Merge(const NodeSketch& other);

  // Merges only the subsketches of rounds [first_round, rounds()).
  // Boruvka's component fold uses this: rounds at or before the current
  // one are never queried again, so merging them is wasted memory
  // traffic. first_round == rounds() is a no-op.
  void MergeRounds(const NodeSketch& other, int first_round);

  void Clear();

  int rounds() const { return static_cast<int>(subsketches_.size()); }
  const NodeSketchParams& params() const { return params_; }
  const CubeSketch& subsketch(int round) const { return subsketches_[round]; }
  CubeSketch& mutable_subsketch(int round) { return subsketches_[round]; }

  size_t ByteSize() const;

  // Flat serialization for the on-disk sketch store. Size depends only
  // on params, so every node's record has identical length.
  size_t SerializedSize() const;
  // Same, computed from params alone (no sketch construction); lets
  // deserializers validate sizes before allocating anything.
  static size_t SerializedSizeFor(const NodeSketchParams& params);
  void SerializeTo(uint8_t* out) const;
  void DeserializeFrom(const uint8_t* in);
  // XORs a serialized record (SerializeTo layout, same params) into this
  // sketch in place, bitwise-equal to DeserializeFrom into a scratch
  // sketch + Merge() but one pass and no scratch. Records need no
  // alignment: a round record is 12 bytes per bucket, so its words
  // start misaligned whenever the bucket count is odd.
  void MergeSerialized(const uint8_t* in);
  // Overwrites this sketch with a serialized record and XORs the change
  // into `*sum` in the same pass: sum ^= this ^ record; this = record.
  void ReplaceSerialized(const uint8_t* in, NodeSketch* sum);

  friend bool operator==(const NodeSketch& a, const NodeSketch& b) {
    return a.params_ == b.params_ && a.subsketches_ == b.subsketches_;
  }

 private:
  // Runs the kernel over every round; indices already validated.
  void ApplyKernel(SketchKernel kernel, const uint64_t* indices,
                   size_t count);

  NodeSketchParams params_;
  std::vector<CubeSketch> subsketches_;
};

}  // namespace gz

#endif  // GZ_SKETCH_NODE_SKETCH_H_
