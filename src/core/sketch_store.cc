#include "core/sketch_store.h"

#include <chrono>
#include <cstring>
#include <random>

#include <fcntl.h>
#include <unistd.h>

#include "util/check.h"
#include "util/random.h"

namespace gz {
namespace {

// A nonzero 64-bit draw that differs between any two stores a reader
// could confuse: the OS entropy source, mixed with the clock and a
// process-wide counter in case that source is deterministic. Zero is
// reserved — the zero change token means "no store seen yet".
uint64_t DrawIncarnation() {
  static std::atomic<uint64_t> counter{0};
  std::random_device rd;
  const uint64_t entropy = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  const uint64_t clock = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  SplitMix64 mix(entropy ^ clock ^ (counter.fetch_add(1) << 48));
  uint64_t x = 0;
  while (x == 0) x = mix.Next();
  return x;
}

}  // namespace

SketchStore::SketchStore(const NodeSketchParams& params)
    : params_(params),
      stamps_(std::make_unique<std::atomic<uint64_t>[]>(params.num_nodes)),
      incarnation_(DrawIncarnation()) {
  // Normalize params_ (auto rounds) by building one prototype sketch.
  NodeSketch prototype(params_);
  params_ = prototype.params();
  record_bytes_ = prototype.SerializedSize();
}

// ---------------- InMemorySketchStore ---------------------------------

InMemorySketchStore::InMemorySketchStore(const NodeSketchParams& params)
    : SketchStore(params) {
  sketches_.reserve(params_.num_nodes);
  for (uint64_t i = 0; i < params_.num_nodes; ++i) {
    sketches_.emplace_back(params_);
  }
  locks_ = std::make_unique<std::mutex[]>(params_.num_nodes);
}

void InMemorySketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node].Merge(delta);
  Stamp(node);
}

void InMemorySketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  *out = sketches_[node];
}

void InMemorySketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK(sketch.params() == params_);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node] = sketch;
  Stamp(node);
}

void InMemorySketchStore::SerializeNode(NodeId node, uint8_t* out) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node].SerializeTo(out);
}

void InMemorySketchStore::MergeSerializedNode(NodeId node,
                                              const uint8_t* record) {
  GZ_CHECK(node < params_.num_nodes);
  std::lock_guard<std::mutex> lock(locks_[node]);
  sketches_[node].MergeSerialized(record);
  Stamp(node);
}

size_t InMemorySketchStore::RamByteSize() const {
  size_t total = sizeof(*this);
  for (const NodeSketch& s : sketches_) total += s.ByteSize();
  total += params_.num_nodes * sizeof(std::mutex) + StampBytes();
  return total;
}

// ---------------- OnDiskSketchStore ------------------------------------

OnDiskSketchStore::OnDiskSketchStore(const NodeSketchParams& params,
                                     std::string path)
    : SketchStore(params), path_(std::move(path)) {
  locks_ = std::make_unique<std::mutex[]>(params_.num_nodes);
}

OnDiskSketchStore::~OnDiskSketchStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status OnDiskSketchStore::Init() {
  if (fd_ >= 0) return Status::FailedPrecondition("already initialized");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot create sketch store file: " + path_);
  }
  // All-zero bytes deserialize to empty sketches, so plain ftruncate
  // initializes every node's region.
  const off_t total =
      static_cast<off_t>(record_bytes_ * params_.num_nodes);
  if (::ftruncate(fd_, total) != 0) {
    return Status::IoError("cannot preallocate sketch store file");
  }
  return Status::Ok();
}

void OnDiskSketchStore::XorIntoRecord(NodeId node, const uint8_t* record) {
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::vector<uint8_t> disk_buf(record_bytes_);
  ssize_t got = ::pread(fd_, disk_buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
               "sketch store pread");
  bytes_read_ += record_bytes_;

  // CubeSketch serialization is XOR-linear, so merging is a bytewise
  // XOR of the two blobs. Word-wise (the blob is a multiple of 4 bytes
  // by construction).
  uint8_t* dst = disk_buf.data();
  size_t i = 0;
  for (; i + 8 <= record_bytes_; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, record + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < record_bytes_; ++i) dst[i] ^= record[i];

  ssize_t wrote = ::pwrite(fd_, disk_buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
  Stamp(node);
}

void OnDiskSketchStore::MergeDelta(NodeId node, const NodeSketch& delta) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  // Serialize the delta outside the lock.
  std::vector<uint8_t> delta_buf(record_bytes_);
  delta.SerializeTo(delta_buf.data());
  std::lock_guard<std::mutex> lock(locks_[node]);
  XorIntoRecord(node, delta_buf.data());
}

void OnDiskSketchStore::MergeSerializedNode(NodeId node,
                                            const uint8_t* record) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  std::lock_guard<std::mutex> lock(locks_[node]);
  XorIntoRecord(node, record);
}

void OnDiskSketchStore::SerializeNode(NodeId node, uint8_t* out) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  {
    std::lock_guard<std::mutex> lock(locks_[node]);
    ssize_t got = ::pread(fd_, out, record_bytes_, offset);
    GZ_CHECK_MSG(got == static_cast<ssize_t>(record_bytes_),
                 "sketch store pread");
  }
  bytes_read_ += record_bytes_;
}

void OnDiskSketchStore::Load(NodeId node, NodeSketch* out) {
  GZ_CHECK(out->SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  SerializeNode(node, buf.data());
  out->DeserializeFrom(buf.data());
}

void OnDiskSketchStore::Store(NodeId node, const NodeSketch& sketch) {
  GZ_CHECK(node < params_.num_nodes);
  GZ_CHECK_MSG(fd_ >= 0, "Init() not called");
  GZ_CHECK(sketch.SerializedSize() == record_bytes_);
  std::vector<uint8_t> buf(record_bytes_);
  sketch.SerializeTo(buf.data());
  const off_t offset = static_cast<off_t>(record_bytes_) * node;
  std::lock_guard<std::mutex> lock(locks_[node]);
  ssize_t wrote = ::pwrite(fd_, buf.data(), record_bytes_, offset);
  GZ_CHECK_MSG(wrote == static_cast<ssize_t>(record_bytes_),
               "sketch store pwrite");
  bytes_written_ += record_bytes_;
  Stamp(node);
}

size_t OnDiskSketchStore::RamByteSize() const {
  // Only metadata lives in RAM; sketches are on disk.
  return sizeof(*this) + params_.num_nodes * sizeof(std::mutex) +
         StampBytes();
}

size_t OnDiskSketchStore::DiskByteSize() const {
  return record_bytes_ * params_.num_nodes;
}

}  // namespace gz
