#include "distributed/sharded_graph_zeppelin.h"

#include <algorithm>

#include "core/connectivity.h"
#include "distributed/shard_endpoint.h"
#include "distributed/shard_protocol.h"
#include "util/check.h"

namespace gz {
namespace {

// Single updates accumulate up to this many before one frame leaves
// (mirrors GraphZeppelin's API-boundary span).
constexpr size_t kPendingSpanUpdates = 1024;

// In-process shards have nowhere remote to live; an elastic op naming
// a non-local endpoint is a caller error, reported not silently bent.
Status RequireLocalEndpoint(const std::string& endpoint) {
  Result<ShardEndpoint> parsed = ParseShardEndpoint(endpoint);
  if (!parsed.ok()) return parsed.status();
  if (!parsed.value().local()) {
    return Status::FailedPrecondition(
        "in-process mode cannot host shard endpoint '" + endpoint + "'");
  }
  return Status::Ok();
}

}  // namespace

ShardedGraphZeppelin::ShardedGraphZeppelin(const GraphZeppelinConfig& base,
                                           int num_shards, Mode mode,
                                           ShardClusterOptions cluster_options)
    : base_(base),
      mode_(mode),
      cluster_options_(std::move(cluster_options)),
      cache_(cluster_options_.migrate_nodes_per_chunk) {
  GZ_CHECK(num_shards >= 1);
  GZ_CHECK(cluster_options_.migrate_nodes_per_chunk >= 1);
  if (mode_ == Mode::kInProcess) {
    table_ = MakeRoutingTable(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      const int id = AllocateInProcessShard();
      GZ_CHECK(id == s);
    }
  } else {
    cluster_ = std::make_unique<ShardCluster>(base, num_shards,
                                              cluster_options_);
    pending_.reserve(kPendingSpanUpdates);
  }
}

int ShardedGraphZeppelin::AllocateInProcessShard() {
  const int id = static_cast<int>(shards_.size());
  GraphZeppelinConfig shard_config = base_;
  shard_config.instance_tag = "shard" + std::to_string(id);
  shards_.push_back(std::make_unique<GraphZeppelin>(shard_config));
  route_bufs_.emplace_back();
  delta_seq_.push_back(0);
  return id;
}

Status ShardedGraphZeppelin::Init() {
  if (mode_ == Mode::kProcess) {
    Status s = cluster_->Start();
    if (s.ok()) initialized_ = true;
    return s;
  }
  // Replication needs independently failing processes; R "replicas"
  // inside one address space share every fault, so an in-process
  // cluster asking for them is a misconfiguration, not a degenerate
  // deployment to run anyway.
  if (cluster_options_.replication_factor > 1) {
    return Status::InvalidArgument(
        "in-process mode cannot replicate (replication_factor " +
        std::to_string(cluster_options_.replication_factor) +
        "); use Mode::kProcess");
  }
  // An endpoint list naming remote shards with in-process execution is
  // a misconfiguration that must not silently run everything locally —
  // the same refusal the elastic ops give a non-local endpoint.
  for (const std::string& endpoint : cluster_options_.shard_endpoints) {
    Status s = RequireLocalEndpoint(endpoint);
    if (!s.ok()) return s;
  }
  for (auto& shard : shards_) {
    Status s = shard->Init();
    if (!s.ok()) return s;
  }
  initialized_ = true;
  return Status::Ok();
}

int ShardedGraphZeppelin::ShardFor(const Edge& e) const {
  return RouteToShard(e, base_.num_nodes, routing_table());
}

const RoutingTable& ShardedGraphZeppelin::routing_table() const {
  return mode_ == Mode::kProcess ? cluster_->routing_table() : table_;
}

void ShardedGraphZeppelin::DrainPending() {
  if (pending_.empty()) return;
  GZ_CHECK_OK(cluster_->Update(pending_.data(), pending_.size()));
  pending_.clear();  // Keeps capacity.
}

void ShardedGraphZeppelin::Update(const GraphUpdate& update) {
  if (mode_ == Mode::kProcess) {
    pending_.push_back(update);
    if (pending_.size() >= kPendingSpanUpdates) DrainPending();
    return;
  }
  shards_[ShardFor(update.edge)]->Update(update);
}

void ShardedGraphZeppelin::Update(const GraphUpdate* updates, size_t count) {
  if (mode_ == Mode::kProcess) {
    DrainPending();  // Preserve stream order with singly fed updates.
    GZ_CHECK_OK(cluster_->Update(updates, count));
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    route_bufs_[ShardFor(updates[i].edge)].push_back(updates[i]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<GraphUpdate>& buf = route_bufs_[s];
    if (buf.empty()) continue;
    GZ_CHECK_MSG(shards_[s] != nullptr,
                 "table routed an update to a removed shard");
    shards_[s]->Update(buf.data(), buf.size());
    buf.clear();  // Keeps capacity for the next span.
  }
}

void ShardedGraphZeppelin::Flush() {
  if (mode_ == Mode::kProcess) {
    DrainPending();
    GZ_CHECK_OK(cluster_->Flush());
    return;
  }
  for (auto& shard : shards_) {
    if (shard != nullptr) shard->Flush();
  }
}

GraphSnapshot ShardedGraphZeppelin::Snapshot() {
  if (mode_ == Mode::kProcess) {
    DrainPending();
    Result<GraphSnapshot> r = cluster_->Snapshot();
    GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
    return std::move(r).value();
  }
  // All shards share hash seeds, so the node-wise XOR of their
  // snapshots is the sketch of the whole graph. Shards past the first
  // are folded in place, one scratch sketch at a time. Removed shards'
  // ingested counts live on via migrated_updates_ (their sketch
  // content migrated to survivors as count-free deltas).
  GraphSnapshot merged;
  for (auto& shard : shards_) {
    if (shard == nullptr) continue;
    if (!merged.valid()) {
      merged = shard->Snapshot();
    } else {
      GZ_CHECK_OK(shard->MergeSnapshotInto(&merged));
    }
  }
  GZ_CHECK_MSG(merged.valid(), "no active shards");
  merged.AddUpdates(migrated_updates_);
  return merged;
}

ConnectivityResult ShardedGraphZeppelin::ListSpanningForest() {
  return Connectivity(Snapshot(), base_.query_threads);
}

Result<HeavyHitterSketch> ShardedGraphZeppelin::HeavyHitters() {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->HeavyHitters();
  }
  if (base_.heavy_hitter_width == 0) {
    return Status::FailedPrecondition(
        "heavy-hitter tracking disabled (heavy_hitter_width == 0)");
  }
  // Sum-merge the live shards' side sketches, then the counters
  // captured from removed shards. Merge order is irrelevant to the
  // result (additive grids, sorted candidate serialization).
  HeavyHitterSketch merged;
  for (auto& shard : shards_) {
    if (shard == nullptr) continue;
    const HeavyHitterSketch* hh = shard->heavy_hitters();
    GZ_CHECK(hh != nullptr);
    if (!merged.valid()) {
      merged = *hh;
    } else {
      GZ_CHECK_OK(merged.Merge(*hh));
    }
  }
  if (retired_hh_.valid()) {
    if (!merged.valid()) {
      merged = retired_hh_;
    } else {
      GZ_CHECK_OK(merged.Merge(retired_hh_));
    }
  }
  GZ_CHECK_MSG(merged.valid(), "no active shards");
  return merged;
}

Status ShardedGraphZeppelin::CachedSnapshot(const GraphSnapshot** out) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->CachedSnapshot(out);
  }
  // In-process serving position: each live shard's ingested count plus
  // its fold count — the exact analogue of the cluster's durability
  // bookkeeping, and comparable across modes because both count the
  // same logical events.
  ShardWatermarks marks;
  uint64_t total_updates = migrated_updates_;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] == nullptr) continue;
    ShardWatermark mark;
    mark.num_updates = shards_[s]->num_updates_ingested();
    mark.delta_seq = delta_seq_[s];
    total_updates += mark.num_updates;
    marks.emplace(static_cast<int>(s), mark);
  }
  if (!cache_.Fresh(table_.epoch, marks)) {
    NodeSketchParams params;
    params.num_nodes = base_.num_nodes;
    params.seed = base_.seed;
    params.cols = base_.cols;
    params.rounds = base_.rounds;
    const Status s = cache_.Refresh(
        table_.epoch, marks, total_updates, params,
        [this](int shard, uint64_t lo, uint64_t hi, const ChangeToken& since,
               std::vector<uint8_t>* changed) {
          return shards_[shard]->WriteChangedNodeRangesTo(
              lo, hi, since,
              [changed](size_t bytes) {
                changed->reserve(bytes);
                return Status::Ok();
              },
              [changed](const void* data, size_t size) {
                const uint8_t* p = static_cast<const uint8_t*>(data);
                changed->insert(changed->end(), p, p + size);
                return Status::Ok();
              });
        });
    if (!s.ok()) return s;
  }
  *out = &cache_.merged();
  return Status::Ok();
}

StandingQueryRegistry& ShardedGraphZeppelin::standing_queries() {
  return mode_ == Mode::kProcess && cluster_ != nullptr
             ? cluster_->standing_queries()
             : standing_queries_;
}

Result<size_t> ShardedGraphZeppelin::EvaluateStandingQueries(
    int threads, const StandingQueryNotifier& notifier) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->EvaluateStandingQueries(threads, notifier);
  }
  if (standing_queries_.size() == 0) return size_t{0};
  const GraphSnapshot* snap = nullptr;
  const Status s = CachedSnapshot(&snap);
  if (!s.ok()) return s;
  return standing_queries_.Evaluate(*snap, table_.epoch, threads,
                                    notifier);
}

// ---- Elastic resharding ----------------------------------------------------

Result<int> ShardedGraphZeppelin::AddShard(const std::string& endpoint) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->AddShard(endpoint);
  }
  Status ep = RequireLocalEndpoint(endpoint);
  if (!ep.ok()) return ep;
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (ActiveShards().size() >= RoutingTable::kNumSlots) {
    return Status::FailedPrecondition(
        "slot table is full; cannot add another shard");
  }
  const int id = AllocateInProcessShard();
  Status s = shards_[id]->Init();
  if (!s.ok()) {
    shards_.pop_back();
    route_bufs_.pop_back();
    delta_seq_.pop_back();
    return s;
  }
  table_ = TableWithShardAdded(table_, id);
  return id;
}

Status ShardedGraphZeppelin::BeginRemoveShard(int shard) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->BeginRemoveShard(shard);
  }
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (shards_[shard] == nullptr) {
    return Status::FailedPrecondition("shard already removed");
  }
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  if (ActiveShards().size() < 2) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  table_ = TableWithShardRemoved(table_, shard);
  InProcessMigration m;
  m.remove = true;
  m.source = shard;
  for (const int id : ActiveShards()) {
    if (id != shard) {
      m.target = id;
      break;
    }
  }
  m.next_node = 0;
  m.end_node = base_.num_nodes;
  migration_ = m;
  return Status::Ok();
}

Result<int> ShardedGraphZeppelin::BeginSplitShard(
    int shard, const std::string& endpoint) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->BeginSplitShard(shard, endpoint);
  }
  Status ep = RequireLocalEndpoint(endpoint);
  if (!ep.ok()) return ep;
  GZ_CHECK(shard >= 0 && shard < num_shards());
  if (shards_[shard] == nullptr) {
    return Status::FailedPrecondition("shard already removed");
  }
  if (migration_.has_value()) {
    return Status::FailedPrecondition(
        "a migration is active; pump it to completion first");
  }
  // Keeps the every-live-shard-owns-a-slot invariant (see cluster).
  if (TableSlotCount(table_, shard) < 2) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) +
        " owns too few routing slots to split");
  }
  const int id = AllocateInProcessShard();
  Status s = shards_[id]->Init();
  if (!s.ok()) {
    shards_.pop_back();
    route_bufs_.pop_back();
    delta_seq_.pop_back();
    return s;
  }
  table_ = TableWithShardSplit(table_, shard, id);
  InProcessMigration m;
  m.remove = false;
  m.source = shard;
  m.target = id;
  m.next_node = base_.num_nodes / 2;
  m.end_node = base_.num_nodes;
  migration_ = m;
  return id;
}

Status ShardedGraphZeppelin::PumpMigration() {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (mode_ == Mode::kProcess) {
    DrainPending();
    return cluster_->PumpMigration();
  }
  if (!migration_.has_value()) {
    return Status::FailedPrecondition("no active migration");
  }
  InProcessMigration& m = *migration_;
  if (m.next_node < m.end_node) {
    const uint64_t lo = m.next_node;
    const uint64_t hi = std::min(
        m.end_node, lo + cluster_options_.migrate_nodes_per_chunk);
    // Live extraction, exactly like a shard answering MIGRATE_EXTRACT:
    // the chunk is whatever the source holds for [lo, hi) right now
    // (WriteNodeRangeTo flushes), XOR-installed on the target and
    // XOR-cancelled on the source. A KNOWN delta commutes with
    // whatever ingestion lands between pump steps, so this is exact
    // with no captured copy of the source's full state.
    std::vector<uint8_t> delta;
    delta.reserve(GraphSnapshot::SerializedRangeSizeFor(
        shards_[m.source]->sketch_params(), lo, hi));
    GZ_CHECK_OK(shards_[m.source]->WriteNodeRangeTo(
        lo, hi, [&delta](const void* data, size_t size) {
          const uint8_t* p = static_cast<const uint8_t*>(data);
          delta.insert(delta.end(), p, p + size);
          return Status::Ok();
        }));
    GZ_CHECK_OK(
        shards_[m.target]->MergeSerializedNodeRange(delta.data(),
                                                    delta.size()));
    GZ_CHECK_OK(
        shards_[m.source]->MergeSerializedNodeRange(delta.data(),
                                                    delta.size()));
    // Each fold is one migration delta: content changed with no update
    // count change, which is exactly what the watermark's second
    // component versions (mirrors the cluster's delta_seq_sent_).
    ++delta_seq_[m.target];
    ++delta_seq_[m.source];
    m.next_node = hi;
    return Status::Ok();
  }
  if (m.remove) {
    migrated_updates_ += shards_[m.source]->num_updates_ingested();
    // Mirror the cluster: the retiring shard's additive heavy-hitter
    // counters are not in any migrated delta, so capture them before
    // the instance goes away.
    const HeavyHitterSketch* hh = shards_[m.source]->heavy_hitters();
    if (hh != nullptr) {
      if (!retired_hh_.valid()) {
        retired_hh_ = *hh;
      } else {
        GZ_CHECK_OK(retired_hh_.Merge(*hh));
      }
    }
    shards_[m.source].reset();
  }
  migration_.reset();
  return Status::Ok();
}

bool ShardedGraphZeppelin::migration_active() const {
  return mode_ == Mode::kProcess ? cluster_->migration_active()
                                 : migration_.has_value();
}

int ShardedGraphZeppelin::migration_target() const {
  if (mode_ == Mode::kProcess) return cluster_->migration_target();
  GZ_CHECK(migration_.has_value());
  return migration_->target;
}

Status ShardedGraphZeppelin::RemoveShard(int shard) {
  Status s = BeginRemoveShard(shard);
  while (s.ok() && migration_active()) s = PumpMigration();
  return s;
}

Result<int> ShardedGraphZeppelin::SplitShard(int shard,
                                             const std::string& endpoint) {
  Result<int> id = BeginSplitShard(shard, endpoint);
  if (!id.ok()) return id;
  Status s = Status::Ok();
  while (s.ok() && migration_active()) s = PumpMigration();
  if (!s.ok()) return s;
  return id;
}

int ShardedGraphZeppelin::num_shards() const {
  return mode_ == Mode::kProcess ? cluster_->num_shards()
                                 : static_cast<int>(shards_.size());
}

std::vector<int> ShardedGraphZeppelin::ActiveShards() const {
  if (mode_ == Mode::kProcess) return cluster_->ActiveShards();
  std::vector<int> ids;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] != nullptr) ids.push_back(static_cast<int>(s));
  }
  return ids;
}

uint64_t ShardedGraphZeppelin::updates_in_shard(int shard) {
  if (mode_ == Mode::kProcess) {
    DrainPending();
    Result<ShardStats> r = cluster_->Stats(shard);
    GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
    return r.value().num_updates;
  }
  GZ_CHECK_MSG(shards_[shard] != nullptr, "shard was removed");
  return shards_[shard]->num_updates_ingested();
}

size_t ShardedGraphZeppelin::RamByteSize() {
  if (mode_ == Mode::kProcess) {
    DrainPending();
    size_t total = 0;
    for (const int s : cluster_->ActiveShards()) {
      Result<ShardStats> r = cluster_->Stats(s);
      GZ_CHECK_MSG(r.ok(), r.status().message().c_str());
      total += r.value().ram_bytes;
    }
    return total;
  }
  size_t total = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) total += shard->RamByteSize();
  }
  return total;
}

}  // namespace gz
