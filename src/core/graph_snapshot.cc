#include "core/graph_snapshot.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace gz {
namespace {

// Shared by checkpoint files and network frames; bump the trailing
// version digits on layout changes.
constexpr char kSnapshotMagic[8] = {'G', 'Z', 'S', 'N', 'A', 'P', '0', '1'};
// Pre-GraphSnapshot checkpoints: identical byte layout under a
// different magic. Accepted on read so old checkpoints stay restorable.
constexpr char kLegacyCheckpointMagic[8] = {'G', 'Z', 'C', 'K',
                                            'P', 'T', '0', '1'};

constexpr size_t kHeaderBytes = sizeof(kSnapshotMagic) +
                                sizeof(uint64_t) +  // num_nodes
                                sizeof(uint64_t) +  // seed
                                sizeof(int32_t) +   // cols
                                sizeof(int32_t) +   // rounds
                                sizeof(uint64_t);   // num_updates

// Node-range deltas (migration units) use their own magic: a range is
// not a whole snapshot and must never be mistaken for one.
constexpr char kRangeMagic[8] = {'G', 'Z', 'S', 'N', 'R', 'G', '0', '1'};

constexpr size_t kRangeHeaderBytes = sizeof(kRangeMagic) +
                                     sizeof(uint64_t) +  // num_nodes
                                     sizeof(uint64_t) +  // seed
                                     sizeof(int32_t) +   // cols
                                     sizeof(int32_t) +   // rounds
                                     sizeof(uint64_t) +  // lo
                                     sizeof(uint64_t);   // hi

struct SnapshotHeader {
  NodeSketchParams params;
  uint64_t num_updates = 0;
};

void WriteHeader(const NodeSketchParams& params, uint64_t num_updates,
                 uint8_t* out) {
  std::memcpy(out, kSnapshotMagic, sizeof(kSnapshotMagic));
  out += sizeof(kSnapshotMagic);
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t seed = params.seed;
  const int32_t cols = params.cols;
  const int32_t rounds = params.rounds;
  std::memcpy(out, &num_nodes, sizeof(num_nodes));
  out += sizeof(num_nodes);
  std::memcpy(out, &seed, sizeof(seed));
  out += sizeof(seed);
  std::memcpy(out, &cols, sizeof(cols));
  out += sizeof(cols);
  std::memcpy(out, &rounds, sizeof(rounds));
  out += sizeof(rounds);
  std::memcpy(out, &num_updates, sizeof(num_updates));
}

// Parses and sanity-checks the fixed-size header. The bounds are
// generous but keep a garbage header from driving a huge allocation.
Status ParseHeader(const uint8_t* in, SnapshotHeader* header) {
  if (std::memcmp(in, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0 &&
      std::memcmp(in, kLegacyCheckpointMagic,
                  sizeof(kLegacyCheckpointMagic)) != 0) {
    return Status::InvalidArgument("not a GraphSnapshot: bad magic");
  }
  in += sizeof(kSnapshotMagic);
  uint64_t num_nodes = 0, seed = 0, num_updates = 0;
  int32_t cols = 0, rounds = 0;
  std::memcpy(&num_nodes, in, sizeof(num_nodes));
  in += sizeof(num_nodes);
  std::memcpy(&seed, in, sizeof(seed));
  in += sizeof(seed);
  std::memcpy(&cols, in, sizeof(cols));
  in += sizeof(cols);
  std::memcpy(&rounds, in, sizeof(rounds));
  in += sizeof(rounds);
  std::memcpy(&num_updates, in, sizeof(num_updates));
  // num_nodes is capped at the NodeId (uint32) range; the geometry caps
  // keep one record's size sane. Together with the overflow guard below
  // they make a garbage header an error, never a huge allocation.
  if (num_nodes < 2 || num_nodes > (1ULL << 32) || cols < 1 ||
      cols > 1024 || rounds < 1 || rounds > 4096) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  header->params.num_nodes = num_nodes;
  header->params.seed = seed;
  header->params.cols = cols;
  header->params.rounds = rounds;
  header->num_updates = num_updates;
  const size_t record = NodeSketch::SerializedSizeFor(header->params);
  if (num_nodes > (SIZE_MAX - kHeaderBytes) / record) {
    return Status::InvalidArgument("malformed GraphSnapshot header");
  }
  return Status::Ok();
}

// Expected total byte size of the snapshot `header` describes.
size_t ExpectedBytes(const SnapshotHeader& header) {
  return kHeaderBytes + header.params.num_nodes *
                            NodeSketch::SerializedSizeFor(header.params);
}

// Opens `path` and parses the snapshot header found at `offset` bytes
// in (callers embedding a snapshot stream after their own prefix pass
// its size). On success the stream is positioned at the first node
// record and the body length has been verified to cover every record
// (trailing bytes are tolerated).
Status OpenSnapshotFile(const std::string& path, FILE** out,
                        SnapshotHeader* header, size_t offset = 0) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot file: " + path);
  }
  if (offset != 0 &&
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  uint8_t header_buf[kHeaderBytes];
  if (std::fread(header_buf, 1, kHeaderBytes, f) != kHeaderBytes) {
    std::fclose(f);
    return Status::InvalidArgument("malformed snapshot header: " + path);
  }
  Status s = ParseHeader(header_buf, header);
  if (!s.ok()) {
    std::fclose(f);
    return s;
  }
  // Size check up front: a corrupt node count must not drive the
  // caller's allocations past what the file can actually back.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  const long file_bytes = std::ftell(f);
  if (file_bytes < 0 || static_cast<size_t>(file_bytes) <
                            offset + ExpectedBytes(*header)) {
    std::fclose(f);
    return Status::IoError("truncated snapshot file: " + path);
  }
  if (std::fseek(f, static_cast<long>(offset + kHeaderBytes), SEEK_SET) !=
      0) {
    std::fclose(f);
    return Status::IoError("cannot seek snapshot file: " + path);
  }
  *out = f;
  return Status::Ok();
}

}  // namespace

GraphSnapshot::GraphSnapshot(std::vector<NodeSketch> sketches,
                             uint64_t num_updates)
    : num_updates_(num_updates), sketches_(std::move(sketches)) {
  GZ_CHECK_MSG(!sketches_.empty(), "snapshot needs at least one sketch");
  GZ_CHECK_MSG(sketches_.size() == sketches_[0].params().num_nodes,
               "need one node sketch per vertex");
  for (const NodeSketch& s : sketches_) {
    GZ_CHECK_MSG(s.params() == sketches_[0].params(),
                 "snapshot sketches must share params");
  }
}

const NodeSketchParams& GraphSnapshot::params() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return sketches_[0].params();
}

const NodeSketch& GraphSnapshot::sketch(NodeId node) const {
  GZ_CHECK_MSG(node < sketches_.size(), "node id out of range");
  return sketches_[node];
}

Status GraphSnapshot::Merge(const GraphSnapshot& other) {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("cannot merge an empty snapshot");
  }
  if (!(params() == other.params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  for (uint64_t i = 0; i < sketches_.size(); ++i) {
    sketches_[i].Merge(other.sketches_[i]);
  }
  num_updates_ += other.num_updates_;
  return Status::Ok();
}

Status GraphSnapshot::MergeNodeDelta(NodeId node, const NodeSketch& delta) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  if (node >= sketches_.size()) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!(delta.params() == params())) {
    return Status::InvalidArgument(
        "delta sketch params do not match this snapshot");
  }
  sketches_[node].Merge(delta);
  return Status::Ok();
}

size_t GraphSnapshot::SerializedSize() const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return kHeaderBytes + sketches_.size() * sketches_[0].SerializedSize();
}

size_t GraphSnapshot::SerializedSizeFor(const NodeSketchParams& params) {
  return kHeaderBytes +
         params.num_nodes * NodeSketch::SerializedSizeFor(params);
}

std::vector<uint8_t> GraphSnapshot::Serialize() const {
  std::vector<uint8_t> out(SerializedSize());
  WriteHeader(params(), num_updates_, out.data());
  uint8_t* cursor = out.data() + kHeaderBytes;
  const size_t record = sketches_[0].SerializedSize();
  for (const NodeSketch& s : sketches_) {
    s.SerializeTo(cursor);
    cursor += record;
  }
  return out;
}

Result<GraphSnapshot> GraphSnapshot::Deserialize(const uint8_t* data,
                                                 size_t size) {
  if (data == nullptr || size < kHeaderBytes) {
    return Status::InvalidArgument("GraphSnapshot buffer too short");
  }
  SnapshotHeader header;
  Status s = ParseHeader(data, &header);
  if (!s.ok()) return s;
  // Size check before any allocation: a corrupt node count must fail,
  // not drive a huge reserve.
  if (size != ExpectedBytes(header)) {
    return Status::InvalidArgument(
        "GraphSnapshot buffer size does not match its header");
  }
  const size_t record = NodeSketch::SerializedSizeFor(header.params);
  std::vector<NodeSketch> sketches;
  sketches.reserve(header.params.num_nodes);
  const uint8_t* cursor = data + kHeaderBytes;
  for (uint64_t i = 0; i < header.params.num_nodes; ++i) {
    sketches.emplace_back(header.params);
    sketches.back().DeserializeFrom(cursor);
    cursor += record;
  }
  return GraphSnapshot(std::move(sketches), header.num_updates);
}

Status GraphSnapshot::MergeSerialized(const uint8_t* data, size_t size) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  if (data == nullptr || size < kHeaderBytes) {
    return Status::InvalidArgument("GraphSnapshot buffer too short");
  }
  SnapshotHeader header;
  Status s = ParseHeader(data, &header);
  if (!s.ok()) return s;
  if (size != ExpectedBytes(header)) {
    return Status::InvalidArgument(
        "GraphSnapshot buffer size does not match its header");
  }
  if (!(header.params == params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: merge requires identical seed, node "
        "bound and sketch geometry");
  }
  // Past this point nothing can fail, so the fold never leaves the
  // snapshot half-merged.
  const size_t record = NodeSketch::SerializedSizeFor(header.params);
  const uint8_t* cursor = data + kHeaderBytes;
  for (uint64_t i = 0; i < header.params.num_nodes; ++i) {
    sketches_[i].MergeSerialized(cursor);
    cursor += record;
  }
  num_updates_ += header.num_updates;
  return Status::Ok();
}

size_t GraphSnapshot::SerializedRangeSizeFor(const NodeSketchParams& params,
                                             uint64_t lo, uint64_t hi) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  return kRangeHeaderBytes +
         (hi - lo) * NodeSketch::SerializedSizeFor(params);
}

namespace {

void WriteRangeHeader(const NodeSketchParams& params, uint64_t lo,
                      uint64_t hi, uint8_t* out) {
  std::memcpy(out, kRangeMagic, sizeof(kRangeMagic));
  out += sizeof(kRangeMagic);
  const uint64_t num_nodes = params.num_nodes;
  const uint64_t seed = params.seed;
  const int32_t cols = params.cols;
  const int32_t rounds = params.rounds;
  std::memcpy(out, &num_nodes, sizeof(num_nodes));
  out += sizeof(num_nodes);
  std::memcpy(out, &seed, sizeof(seed));
  out += sizeof(seed);
  std::memcpy(out, &cols, sizeof(cols));
  out += sizeof(cols);
  std::memcpy(out, &rounds, sizeof(rounds));
  out += sizeof(rounds);
  std::memcpy(out, &lo, sizeof(lo));
  out += sizeof(lo);
  std::memcpy(out, &hi, sizeof(hi));
}

}  // namespace

Status GraphSnapshot::ParseSerializedNodeRange(
    const uint8_t* data, size_t size, const NodeSketchParams& expect_params,
    uint64_t* lo, uint64_t* hi, size_t* payload_offset) {
  if (data == nullptr || size < kRangeHeaderBytes) {
    return Status::InvalidArgument("node-range delta buffer too short");
  }
  if (std::memcmp(data, kRangeMagic, sizeof(kRangeMagic)) != 0) {
    return Status::InvalidArgument("not a node-range delta: bad magic");
  }
  const uint8_t* in = data + sizeof(kRangeMagic);
  uint64_t num_nodes = 0, seed = 0, range_lo = 0, range_hi = 0;
  int32_t cols = 0, rounds = 0;
  std::memcpy(&num_nodes, in, sizeof(num_nodes));
  in += sizeof(num_nodes);
  std::memcpy(&seed, in, sizeof(seed));
  in += sizeof(seed);
  std::memcpy(&cols, in, sizeof(cols));
  in += sizeof(cols);
  std::memcpy(&rounds, in, sizeof(rounds));
  in += sizeof(rounds);
  std::memcpy(&range_lo, in, sizeof(range_lo));
  in += sizeof(range_lo);
  std::memcpy(&range_hi, in, sizeof(range_hi));
  if (num_nodes != expect_params.num_nodes || seed != expect_params.seed ||
      cols != expect_params.cols || rounds != expect_params.rounds) {
    return Status::InvalidArgument(
        "node-range delta params mismatch: fold requires identical seed, "
        "node bound and sketch geometry");
  }
  if (!(range_lo < range_hi && range_hi <= num_nodes)) {
    return Status::InvalidArgument("node-range delta has a bad range");
  }
  const size_t record = NodeSketch::SerializedSizeFor(expect_params);
  if (size != kRangeHeaderBytes + (range_hi - range_lo) * record) {
    return Status::InvalidArgument(
        "node-range delta size does not match its header");
  }
  *lo = range_lo;
  *hi = range_hi;
  if (payload_offset != nullptr) *payload_offset = kRangeHeaderBytes;
  return Status::Ok();
}

Status GraphSnapshot::SaveRangeToSink(
    const std::function<Status(const void* data, size_t size)>& sink,
    const NodeSketchParams& params, uint64_t lo, uint64_t hi,
    const RecordWriter& record) {
  GZ_CHECK_MSG(lo < hi && hi <= params.num_nodes, "bad node range");
  uint8_t header[kRangeHeaderBytes];
  WriteRangeHeader(params, lo, hi, header);
  Status s = sink(header, kRangeHeaderBytes);
  std::vector<uint8_t> buf(NodeSketch::SerializedSizeFor(params));
  for (uint64_t i = lo; s.ok() && i < hi; ++i) {
    record(static_cast<NodeId>(i), buf.data());
    s = sink(buf.data(), buf.size());
  }
  return s;
}

void GraphSnapshot::WriteChangedRangesPrefix(const ChangeToken& now,
                                             uint64_t records,
                                             uint8_t* out) {
  std::memcpy(out, &now.incarnation, sizeof(uint64_t));
  std::memcpy(out + 8, &now.generation, sizeof(uint64_t));
  std::memcpy(out + 16, &records, sizeof(uint64_t));
}

Status GraphSnapshot::ReplaceChangedNodeRanges(const uint8_t* data,
                                               size_t size,
                                               GraphSnapshot* sum,
                                               ChangeToken* now) {
  if (!valid() || sum == nullptr || !sum->valid()) {
    return Status::InvalidArgument("empty snapshot");
  }
  if (!(sum->params() == params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: replace-and-fold requires identical "
        "seed, node bound and sketch geometry");
  }
  if (data == nullptr || size < kChangedRangesPrefixBytes) {
    return Status::InvalidArgument("changed-range stream too short");
  }
  ChangeToken token;
  uint64_t count = 0;
  std::memcpy(&token.incarnation, data, sizeof(uint64_t));
  std::memcpy(&token.generation, data + 8, sizeof(uint64_t));
  std::memcpy(&count, data + 16, sizeof(uint64_t));
  // Pass 1 splits the stream into records and validates each, so the
  // folds of pass 2 cannot fail halfway. A record's length follows
  // from its own [lo, hi) once those are checked against the params.
  const size_t record = NodeSketch::SerializedSizeFor(params());
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, bytes)
  size_t offset = kChangedRangesPrefixBytes;
  for (uint64_t r = 0; r < count; ++r) {
    if (size - offset < kRangeHeaderBytes) {
      return Status::InvalidArgument("changed-range stream truncated");
    }
    uint64_t lo = 0, hi = 0;
    std::memcpy(&lo, data + offset + kRangeHeaderBytes - 16, sizeof(lo));
    std::memcpy(&hi, data + offset + kRangeHeaderBytes - 8, sizeof(hi));
    if (!(lo < hi && hi <= num_nodes()) ||
        (hi - lo) > (size - offset - kRangeHeaderBytes) / record) {
      return Status::InvalidArgument(
          "changed-range stream has a bad or truncated record");
    }
    const size_t bytes = kRangeHeaderBytes + (hi - lo) * record;
    Status s =
        ParseSerializedNodeRange(data + offset, bytes, params(), &lo, &hi);
    if (!s.ok()) return s;
    spans.emplace_back(offset, bytes);
    offset += bytes;
  }
  if (offset != size) {
    return Status::InvalidArgument(
        "changed-range stream has trailing bytes after its records");
  }
  for (const auto& [at, bytes] : spans) {
    GZ_CHECK_OK(ReplaceSerializedNodeRange(data + at, bytes, sum));
  }
  *now = token;
  return Status::Ok();
}

std::vector<uint8_t> GraphSnapshot::ExtractNodeRange(uint64_t lo,
                                                     uint64_t hi) const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  std::vector<uint8_t> out;
  out.reserve(SerializedRangeSizeFor(params(), lo, hi));
  GZ_CHECK_OK(SaveRangeToSink(
      [&out](const void* data, size_t size) {
        const uint8_t* p = static_cast<const uint8_t*>(data);
        out.insert(out.end(), p, p + size);
        return Status::Ok();
      },
      params(), lo, hi,
      [this](NodeId i, uint8_t* out) { sketches_[i].SerializeTo(out); }));
  return out;
}

Status GraphSnapshot::MergeSerializedNodeRange(const uint8_t* data,
                                               size_t size) {
  if (!valid()) return Status::InvalidArgument("empty snapshot");
  uint64_t lo = 0, hi = 0;
  Status s = ParseSerializedNodeRange(data, size, params(), &lo, &hi);
  if (!s.ok()) return s;
  // Past this point nothing can fail, so the fold never leaves the
  // snapshot half-merged.
  const size_t record = NodeSketch::SerializedSizeFor(params());
  const uint8_t* cursor = data + kRangeHeaderBytes;
  for (uint64_t i = lo; i < hi; ++i) {
    sketches_[i].MergeSerialized(cursor);
    cursor += record;
  }
  return Status::Ok();
}

Status GraphSnapshot::ReplaceSerializedNodeRange(const uint8_t* data,
                                                 size_t size,
                                                 GraphSnapshot* sum) {
  if (!valid() || sum == nullptr || !sum->valid()) {
    return Status::InvalidArgument("empty snapshot");
  }
  if (!(sum->params() == params())) {
    return Status::InvalidArgument(
        "snapshot params mismatch: replace-and-fold requires identical "
        "seed, node bound and sketch geometry");
  }
  uint64_t lo = 0, hi = 0;
  Status s = ParseSerializedNodeRange(data, size, params(), &lo, &hi);
  if (!s.ok()) return s;
  const size_t record = NodeSketch::SerializedSizeFor(params());
  const uint8_t* cursor = data + kRangeHeaderBytes;
  for (uint64_t i = lo; i < hi; ++i) {
    sketches_[i].ReplaceSerialized(cursor, &sum->sketches_[i]);
    cursor += record;
  }
  return Status::Ok();
}

std::vector<NodeSketch> GraphSnapshot::ReleaseSketches() {
  std::vector<NodeSketch> out = std::move(sketches_);
  sketches_.clear();
  num_updates_ = 0;
  return out;
}

Status GraphSnapshot::SaveToFile(const std::string& path) const {
  GZ_CHECK_MSG(valid(), "empty snapshot");
  return SaveStream(path, params(), num_updates_,
                    [this](NodeId i, uint8_t* out) {
                      sketches_[i].SerializeTo(out);
                    });
}

Status GraphSnapshot::SaveToSink(
    const std::function<Status(const void* data, size_t size)>& sink,
    const NodeSketchParams& params, uint64_t num_updates,
    const RecordWriter& record) {
  uint8_t header[kHeaderBytes];
  WriteHeader(params, num_updates, header);
  Status s = sink(header, kHeaderBytes);
  // One record in flight: a sink (file or socket) never needs the
  // doubled footprint of a full Serialize() buffer.
  std::vector<uint8_t> buf(NodeSketch::SerializedSizeFor(params));
  for (uint64_t i = 0; s.ok() && i < params.num_nodes; ++i) {
    record(static_cast<NodeId>(i), buf.data());
    s = sink(buf.data(), buf.size());
  }
  return s;
}

Status GraphSnapshot::SaveStream(const std::string& path,
                                 const NodeSketchParams& params,
                                 uint64_t num_updates,
                                 const RecordWriter& record) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create snapshot file: " + path);
  }
  Status s = SaveToSink(
      [f, &path](const void* data, size_t size) {
        if (std::fwrite(data, 1, size, f) != size) {
          return Status::IoError("short write to snapshot file: " + path);
        }
        return Status::Ok();
      },
      params, num_updates, record);
  std::fclose(f);
  return s;
}

Result<GraphSnapshot> GraphSnapshot::LoadFromFile(const std::string& path) {
  FILE* f = nullptr;
  SnapshotHeader header;
  Status s = OpenSnapshotFile(path, &f, &header);
  if (!s.ok()) return s;
  const size_t record = NodeSketch::SerializedSizeFor(header.params);
  std::vector<NodeSketch> sketches;
  sketches.reserve(header.params.num_nodes);
  std::vector<uint8_t> buf(record);
  for (uint64_t i = 0; i < header.params.num_nodes; ++i) {
    if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      return Status::IoError("truncated snapshot file: " + path);
    }
    sketches.emplace_back(header.params);
    sketches.back().DeserializeFrom(buf.data());
  }
  std::fclose(f);
  return GraphSnapshot(std::move(sketches), header.num_updates);
}

Status GraphSnapshot::LoadStream(
    const std::string& path, const NodeSketchParams& expect_params,
    uint64_t* num_updates,
    const std::function<void(NodeId, const NodeSketch&)>& store,
    size_t offset) {
  FILE* f = nullptr;
  SnapshotHeader header;
  Status s = OpenSnapshotFile(path, &f, &header, offset);
  if (!s.ok()) return s;
  if (!(header.params == expect_params)) {
    std::fclose(f);
    return Status::InvalidArgument(
        "snapshot sketch parameters do not match this instance");
  }
  NodeSketch scratch(header.params);
  std::vector<uint8_t> buf(scratch.SerializedSize());
  for (uint64_t i = 0; i < header.params.num_nodes; ++i) {
    if (std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      return Status::IoError("truncated snapshot file: " + path);
    }
    scratch.DeserializeFrom(buf.data());
    store(static_cast<NodeId>(i), scratch);
  }
  std::fclose(f);
  if (num_updates != nullptr) *num_updates = header.num_updates;
  return Status::Ok();
}

}  // namespace gz
