// The three ingest workloads: one kron12 stream (V = 4096, ~4.7M
// insert/delete updates) pushed through the single-process system
// with RAM or on-disk sketches, or through a two-process shard
// cluster. Each pass builds a fresh system, streams the whole input in
// fixed spans, takes the exact answer and checkpoints. Then readers
// query the last pass's graph and watch a probe edge through a
// standing query.
#include <unistd.h>

#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"
#include "core/standing_query.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_protocol.h"
#include "trace.h"
#include "workloads/count_min.h"

namespace gzb {
namespace {

constexpr int kKronScale = 12;
constexpr size_t kSpanUpdates = size_t{1} << 14;  // Updates per API call.
// A run spends kPassShare of its measured time on passes (at least
// kMinPasses) and the rest on reader queries against the last pass's
// graph (at least kMinQueries), with a notified probe toggle after
// every kQueriesPerToggle queries.
constexpr double kPassShare = 0.6;
constexpr int kMinPasses = 3;
constexpr int kMinQueries = 30;
constexpr int kQueriesPerToggle = 2;
constexpr int kCheckpoints = 3;  // Per pass, reported as a median.
constexpr int kGenerations = 3;
constexpr int kClusterShards = 2;
constexpr uint32_t kHeavyHitterWidth = 4096;

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// GraphZeppelin in this process (RAM or on-disk sketches).
class SingleTarget {
 public:
  SingleTarget(const gz::GraphZeppelinConfig& config, std::string dir)
      : gz_(config), checkpoint_path_(dir + "/gz_bench_checkpoint.snap") {}
  ~SingleTarget() { ::unlink(checkpoint_path_.c_str()); }

  gz::Status Start() { return gz_.Init(); }
  gz::Status Update(const gz::GraphUpdate* updates, size_t count) {
    Span span("core.update");
    gz_.Update(updates, count);
    return gz::Status::Ok();
  }
  gz::Status Flush() {
    Span span("core.flush");
    gz_.Flush();
    return gz::Status::Ok();
  }
  gz::Result<gz::GraphSnapshot> Fold() {
    Span span("core.snapshot");
    return gz_.Snapshot();
  }
  gz::Result<uint64_t> RamBytes() {
    Span span("core.ram_probe");
    return static_cast<uint64_t>(gz_.RamByteSize());
  }
  gz::Status Checkpoint() {
    Span span("core.checkpoint");
    return gz_.SaveCheckpoint(checkpoint_path_);
  }
  uint64_t CheckpointBytes(const std::string& dir) const {
    return DirBytes(dir, "gz_bench_checkpoint");
  }
  // A reader's query: a fresh snapshot of the current state, handed to
  // Connectivity (what ListSpanningForest does).
  gz::Status Query(gz::ConnectivityResult* out) {
    gz::GraphSnapshot snap;
    {
      Span span("core.snapshot");
      snap = gz_.Snapshot();
    }
    Span span("core.connectivity");
    *out = gz::Connectivity(std::move(snap));
    return gz::Status::Ok();
  }
  gz::StandingQueryRegistry& registry() { return registry_; }
  gz::Result<size_t> Evaluate(const gz::StandingQueryNotifier& notifier) {
    gz::GraphSnapshot snap;
    {
      Span span("core.snapshot");
      snap = gz_.Snapshot();
    }
    Span span("core.standing_evaluate");
    return registry_.Evaluate(snap, 0, 0, notifier);
  }
  uint64_t DiskBytes() const { return gz_.DiskByteSize(); }

 private:
  gz::GraphZeppelin gz_;
  std::string checkpoint_path_;
  gz::StandingQueryRegistry registry_;
};

// A ShardCluster of local gz_shard processes.
class ClusterTarget {
 public:
  ClusterTarget(const gz::GraphZeppelinConfig& base,
                const gz::ShardClusterOptions& options)
      : cluster_(base, kClusterShards, options) {}

  gz::Status Start() { return cluster_.Start(); }
  gz::Status Update(const gz::GraphUpdate* updates, size_t count) {
    Span span("distributed.update");
    return cluster_.Update(updates, count);
  }
  gz::Status Flush() {
    Span span("distributed.flush");
    return cluster_.Flush();
  }
  gz::Result<gz::GraphSnapshot> Fold() {
    Span span("distributed.fold");
    return cluster_.Snapshot();
  }
  gz::Result<gz::HeavyHitterSketch> HeavyHitters() {
    Span span("workloads.hh_fold");
    return cluster_.HeavyHitters();
  }
  gz::Result<uint64_t> RamBytes() {
    Span span("distributed.stats");
    uint64_t total = 0;
    for (const int s : cluster_.ActiveShards()) {
      gz::Result<gz::ShardStats> st = cluster_.Stats(s);
      if (!st.ok()) return st.status();
      total += st.value().ram_bytes;
    }
    return total;
  }
  gz::Status Checkpoint() {
    Span span("distributed.checkpoint");
    return cluster_.Checkpoint();
  }
  uint64_t CheckpointBytes(const std::string& dir) const {
    return DirBytes(dir, "gz_shard_ckpt");
  }
  // A reader's query through the serving cache.
  gz::Status Query(gz::ConnectivityResult* out) {
    const gz::GraphSnapshot* snap = nullptr;
    {
      Span span("distributed.cached_snapshot");
      const gz::Status s = cluster_.CachedSnapshot(&snap);
      if (!s.ok()) return s;
    }
    Span span("core.connectivity");
    *out = gz::Connectivity(*snap);
    return gz::Status::Ok();
  }
  gz::StandingQueryRegistry& registry() { return cluster_.standing_queries(); }
  gz::Result<size_t> Evaluate(const gz::StandingQueryNotifier& notifier) {
    Span span("distributed.standing_evaluate");
    return cluster_.EvaluateStandingQueries(0, notifier);
  }
  const gz::SnapshotCache& cache() const { return cluster_.snapshot_cache(); }

 private:
  gz::ShardCluster cluster_;
};

struct PassResult {
  bool traced = false;
  double start_s = 0, rate = 0, answer_s = 0, wall_s = 0;
  double ram_bytes = 0, coverage = 0;
  int rounds = 0;
};

// Share of [from, to] that root spans recorded after `first_span`
// cover: the blocking path of one traced pass.
double StageCoverage(size_t first_span, int64_t from, int64_t to) {
  const std::vector<SpanRecord> spans = GlobalTracer().spans();
  double covered = 0;
  for (size_t i = first_span; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent == 0 && s.start_ns >= from && s.end_ns <= to) {
      covered += s.seconds();
    }
  }
  return covered / ((to - from) * 1e-9);
}

// The cluster's heavy-hitter fold must be byte-identical to the
// reference fold, and count exactly what one sketch of the whole
// stream counts. The candidate tables saturate on this stream, so the
// candidate sets (admitted in arrival order) differ from the single
// sketch's, but the count-min grids are linear: every estimate, and the
// degree ranking (V nodes fit the degree table), must agree.
bool HeavyHittersMatch(const gz::HeavyHitterSketch& fold,
                       const gz::HeavyHitterSketch& single,
                       const std::vector<uint8_t>& fold_bytes,
                       uint64_t num_nodes) {
  if (fold.Serialize() != fold_bytes ||
      fold.updates_applied() != single.updates_applied() ||
      fold.TopDegrees(num_nodes) != single.TopDegrees(num_nodes)) {
    return false;
  }
  for (const gz::HeavyHitterEntry& e :
       single.TopEdges(single.params().candidates)) {
    const gz::Edge edge = gz::IndexToEdge(e.key, num_nodes);
    if (fold.EdgeCount(edge) != single.EdgeCount(edge)) return false;
  }
  return true;
}

double MedianOf(const std::vector<PassResult>& passes, bool traced,
                double PassResult::*field) {
  std::vector<double> v;
  for (const PassResult& p : passes) {
    if (p.traced == traced) v.push_back(p.*field);
  }
  return Median(v);
}

// Per-layer metrics read back from the recorded spans.
void ReportSpanMetrics(Report* report, uint64_t updates_per_pass,
                       int traced_passes) {
  const auto roots = GlobalTracer().Summarize(true);
  // A layer without spans is idle on this workload and not reported.
  auto median_of = [&](const char* span, const char* metric) {
    const auto it = roots.find(span);
    if (it == roots.end()) return;
    report->Metric(metric, Median(it->second.durations_s), "s");
  };
  auto ns_per_update = [&](const char* span, const char* metric) {
    const auto it = roots.find(span);
    if (it == roots.end()) return;
    report->Metric(metric,
                   1e9 * it->second.total_s /
                       static_cast<double>(updates_per_pass * traced_passes),
                   "ns");
  };
  ns_per_update("core.update", "core.update_call_ns");
  median_of("core.flush", "core.flush_s");
  median_of("core.snapshot", "core.snapshot_s");
  median_of("core.connectivity", "core.connectivity_s");
  ns_per_update("distributed.update", "distributed.update_call_ns");
  median_of("distributed.flush", "distributed.flush_s");
  median_of("distributed.fold", "distributed.fold_s");
  median_of("workloads.hh_fold", "workloads.hh_fold_s");
  // Self time per layer across the traced passes, for the record.
  for (const auto& [name, st] : GlobalTracer().Summarize(false)) {
    report->InfoNum("self_s." + name, st.self_s);
    report->InfoNum("count." + name, static_cast<double>(st.count));
  }
}

template <typename Target, typename MakeTarget>
void RunIngest(const Options& opt, const gz::GraphZeppelinConfig& config,
               MakeTarget make_target, Report* report) {
  constexpr bool kCluster = std::is_same_v<Target, ClusterTarget>;
  // Generating the stream is most of the set-up; it is timed
  // kGenerations times so that set-up time is a median too.
  int64_t t = 0;
  Stream stream;
  std::vector<double> gen_times;
  for (int i = 0; i < kGenerations; ++i) {
    stream = Stream();
    t = NowNs();
    stream = MakeKronStream(kKronScale, opt.seed);
    gen_times.push_back(SecondsSince(t));
  }
  const double gen_s = Median(gen_times);
  const uint64_t n = stream.updates.size();
  const uint64_t v = stream.num_nodes;
  report->InfoNum("stream_updates", static_cast<double>(n));
  report->InfoNum("num_nodes", static_cast<double>(v));
  report->InfoNum("span_updates", static_cast<double>(kSpanUpdates));

  // Heavy-hitter references, built outside every timed section: one
  // sketch fed the whole stream, and the fold the cluster must return,
  // built from one sketch per shard fed its routed sub-stream in order.
  gz::HeavyHitterSketch hh_single;
  std::vector<uint8_t> hh_fold_bytes;
  if constexpr (kCluster) {
    gz::HeavyHitterParams hp;
    hp.num_nodes = v;
    hp.seed = config.seed;
    hp.width = config.heavy_hitter_width;
    hp.depth = config.heavy_hitter_depth;
    hp.candidates = config.heavy_hitter_candidates;
    hh_single = gz::HeavyHitterSketch(hp);
    hh_single.Update(stream.updates.data(), stream.updates.size());
    const gz::RoutingTable table = gz::MakeRoutingTable(kClusterShards);
    std::vector<gz::HeavyHitterSketch> shards(kClusterShards,
                                              gz::HeavyHitterSketch(hp));
    for (const gz::GraphUpdate& u : stream.updates) {
      shards[gz::RouteToShard(u.edge, v, table)].Update(u);
    }
    for (int s = 1; s < kClusterShards; ++s) {
      report->Check(shards[0].Merge(shards[s]).ok(),
                    "reference heavy-hitter merge");
    }
    hh_fold_bytes = shards[0].Serialize();
  }
  report->Check(stream.disconnected.size() >= 2,
                "stream isolates two nodes for the probe edge");
  if (stream.disconnected.size() < 2) return;
  const gz::Edge probe(stream.disconnected[0], stream.disconnected[1]);

  std::vector<PassResult> passes;
  std::vector<double> checkpoint_s, query_s, notify_s;
  double disk_bytes = 0, checkpoint_bytes = 0, snapshot_bytes = 0;
  gz::ConnectivityResult answer;
  std::unique_ptr<Target> target;  // The last pass's system.
  const int64_t run_start = NowNs();
  for (int pass = 0; pass < kMinPasses ||
                     SecondsSince(run_start) < kPassShare * opt.seconds;
       ++pass) {
    PassResult pr;
    // Traced runs alternate untraced and traced passes; the pair gives
    // the tracing overhead.
    pr.traced = opt.trace && pass % 2 == 1;
    GlobalTracer().set_enabled(pr.traced);
    const size_t first_span = GlobalTracer().spans().size();

    target.reset();
    target = make_target();
    t = NowNs();
    const gz::Status started = target->Start();
    pr.start_s = SecondsSince(t);
    report->Attempt(started, "start");
    if (!started.ok()) return;

    // ---- Timed: spans, flush, snapshot or fold, connectivity ----
    const int64_t t_first = NowNs();
    uint64_t ram_mid = 0;
    for (uint64_t off = 0; off < n; off += kSpanUpdates) {
      const size_t take = static_cast<size_t>(std::min<uint64_t>(
          kSpanUpdates, n - off));
      report->Attempt(target->Update(stream.updates.data() + off, take),
                      "update span");
      if (off <= n / 2 && off + take > n / 2) {
        gz::Result<uint64_t> ram = target->RamBytes();
        report->Attempt(ram.status(), "mid-stream memory probe");
        if (ram.ok()) ram_mid = ram.value();
      }
    }
    const int64_t t_last = NowNs();
    report->Attempt(target->Flush(), "flush");
    const int64_t t_flushed = NowNs();
    gz::Result<gz::GraphSnapshot> folded = target->Fold();
    report->Attempt(folded.status(), "snapshot");
    answer = gz::ConnectivityResult();
    if (folded.ok()) {
      snapshot_bytes = static_cast<double>(folded.value().SerializedSize());
      Span span("core.connectivity");
      answer = gz::Connectivity(std::move(folded).value());
    }
    gz::Result<gz::HeavyHitterSketch> hh = gz::Status::Internal("unused");
    if constexpr (kCluster) {
      hh = target->HeavyHitters();
      report->Attempt(hh.status(), "heavy hitters");
    }
    const int64_t t_answer = NowNs();
    GlobalTracer().set_enabled(false);

    pr.rate = static_cast<double>(n) / ((t_flushed - t_first) * 1e-9);
    pr.answer_s = (t_answer - t_last) * 1e-9;
    pr.wall_s = (t_answer - t_first) * 1e-9;
    pr.rounds = answer.rounds_used;
    if (pr.traced) pr.coverage = StageCoverage(first_span, t_first, t_answer);

    std::string why;
    report->Check(folded.ok() &&
                      SamePartition(answer, v, stream.final_edges, &why),
                  "components equal the reference partition " + why);
    if constexpr (kCluster) {
      report->Check(hh.ok() && HeavyHittersMatch(hh.value(), hh_single,
                                                 hh_fold_bytes, v),
                    "folded heavy hitters match the reference sketches");
    }
    gz::Result<uint64_t> ram_end = target->RamBytes();
    report->Attempt(ram_end.status(), "memory probe");
    pr.ram_bytes = static_cast<double>(
        std::max(ram_mid, ram_end.ok() ? ram_end.value() : 0));
    if constexpr (!kCluster) {
      disk_bytes = static_cast<double>(target->DiskBytes());
    }

    GlobalTracer().set_enabled(pr.traced);
    for (int k = 0; k < kCheckpoints; ++k) {
      t = NowNs();
      report->Attempt(target->Checkpoint(), "checkpoint");
      if (!pr.traced) checkpoint_s.push_back(SecondsSince(t));
    }
    GlobalTracer().set_enabled(false);
    checkpoint_bytes =
        static_cast<double>(target->CheckpointBytes(opt.tmp_dir));
    passes.push_back(pr);
  }
  report->InfoNum("passes", static_cast<double>(passes.size()));

  // ---- Readers on the last pass's final graph ----
  // Untimed warm-up: the first read builds the reader's view, and the
  // standing query's first evaluation reports its initial answer.
  GlobalTracer().set_enabled(opt.trace);
  gz::ConnectivityResult warm;
  report->Attempt(target->Query(&warm), "warm reader view");
  gz::StandingQueryRegistry& registry = target->registry();
  const uint64_t query_id =
      registry.Add({gz::StandingQueryKind::kConnected, probe.u, probe.v});
  bool fired = false;
  bool fired_answer = false;
  int64_t fired_ns = 0;
  const gz::StandingQueryNotifier notifier =
      [&](const gz::StandingQueryNotification& note, const gz::GraphSnapshot&) {
        if (note.query_id != query_id) return;
        fired = true;
        fired_answer = note.answer.connected;
        fired_ns = NowNs();
      };
  report->Attempt(target->Evaluate(notifier).status(),
                  "initial standing-query evaluation");
  report->Check(fired && !fired_answer, "probe pair starts disconnected");
  bool connected = false;
  // The probe edge is the only change, so a query sees one component
  // fewer while it is present.
  for (int i = 0; i < kMinQueries || SecondsSince(run_start) < opt.seconds;
       ++i) {
    t = NowNs();
    Span query("query");
    gz::ConnectivityResult r;
    const gz::Status s = target->Query(&r);
    query.End();
    const bool queried = s.ok() && !r.failed;
    report->Attempt(queried ? s : gz::Status::Internal("query failed"),
                    "reader query");
    query_s.push_back(queried ? SecondsSince(t) : kInf);
    report->Check(!queried || r.num_components + (connected ? 1 : 0) ==
                                  answer.num_components,
                  "reader query sees the current component count");

    if (i % kQueriesPerToggle == kQueriesPerToggle - 1) {
      const gz::GraphUpdate toggle{probe, connected ? gz::UpdateType::kDelete
                                                    : gz::UpdateType::kInsert};
      fired = false;
      t = NowNs();
      Span notify("notify");
      const gz::Status sent = target->Update(&toggle, 1);
      const gz::Result<size_t> evaluated = target->Evaluate(notifier);
      notify.End();
      if (sent.ok()) connected = !connected;
      const bool ok = sent.ok() && evaluated.ok() && fired;
      report->Attempt(ok, "probe notification");
      report->Check(!fired || fired_answer == connected,
                    "notification answer equals the probe state");
      notify_s.push_back(ok ? (fired_ns - t) * 1e-9 : kInf);
    }
  }
  const double useful = static_cast<double>(registry.notifications()) /
                        static_cast<double>(registry.evaluations());
  registry.Remove(query_id);
  GlobalTracer().set_enabled(false);

  if (opt.trace) {
    gz::Result<gz::GraphSnapshot> view = target->Fold();
    report->Attempt(view.status(), "layer input snapshot");
    LayerInputs in;
    in.config = config;
    in.config.num_nodes = v;
    in.stream = &stream;
    in.snapshot = view.ok() ? &view.value() : nullptr;
    in.shards = kClusterShards;
    in.span_updates = kSpanUpdates;
    in.gutter_tree =
        config.buffering == gz::GraphZeppelinConfig::Buffering::kGutterTree;
    in.tmp_dir = opt.tmp_dir;
    MeasureLayers(in, report);
    report->Metric("core.standing_useful_ratio", useful, "ratio");
    if constexpr (kCluster) {
      // Reader calls: the warm-up, each query and each evaluation.
      const double reads =
          static_cast<double>(2 + query_s.size() + notify_s.size());
      report->Metric("core.cache_refresh_ratio",
                     static_cast<double>(target->cache().refreshes()) / reads,
                     "ratio");
      report->Metric("core.cache_range_pulls",
                     static_cast<double>(target->cache().range_pulls()),
                     "count");
    }
  }
  target.reset();
  const double measure_ms = 1e3 * SecondsSince(run_start);

  if (!opt.trace) {
    report->Metric("setup_s",
                   gen_s + MedianOf(passes, false, &PassResult::start_s), "s");
    report->Metric("ingest_updates_per_s",
                   MedianOf(passes, false, &PassResult::rate), "1/s");
    report->Metric("answer_s", MedianOf(passes, false, &PassResult::answer_s),
                   "s");
    report->Metric("ram_mb",
                   MedianOf(passes, false, &PassResult::ram_bytes) / 1e6, "MB");
    report->Metric("checkpoint_s", Median(checkpoint_s), "s");
    ReportLatency(report, "query", query_s, measure_ms);
    ReportLatency(report, "notify", notify_s, measure_ms);
    return;
  }

  int traced = 0;
  double min_coverage = 1.0;
  for (const PassResult& p : passes) {
    if (!p.traced) continue;
    ++traced;
    min_coverage = std::min(min_coverage, p.coverage);
  }
  ReportSpanMetrics(report, n, traced);
  const double untraced_wall = MedianOf(passes, false, &PassResult::wall_s);
  report->Metric("trace.overhead_pct",
                 100.0 * (MedianOf(passes, true, &PassResult::wall_s) /
                              untraced_wall -
                          1.0),
                 "%");
  report->Metric("trace.stage_coverage", min_coverage, "ratio");
  report->Check(min_coverage >= kMinStageCoverage && min_coverage <= 1.0 + 1e-9,
                "blocking-path spans cover the measured wall time");
  report->Metric("core.ingest_ns_per_update",
                 1e9 / MedianOf(passes, false, &PassResult::rate), "ns");
  report->Metric("core.boruvka_rounds", passes.back().rounds, "count");
  report->Metric("core.snapshot_mb", snapshot_bytes / 1e6, "MB");
  if (disk_bytes > 0) report->Metric("core.disk_mb", disk_bytes / 1e6, "MB");
  if constexpr (kCluster) {
    report->Metric("distributed.fold_mb", kClusterShards * snapshot_bytes / 1e6,
                   "MB");
    report->Metric("distributed.checkpoint_mb", checkpoint_bytes / 1e6, "MB");
  }
}

gz::GraphZeppelinConfig BaseConfig(const Options& opt) {
  gz::GraphZeppelinConfig c;
  c.num_nodes = uint64_t{1} << kKronScale;
  c.seed = opt.seed * 0x2545F4914F6CDD1DULL + 11;
  c.num_workers = 2;
  c.disk_dir = opt.tmp_dir;
  return c;
}

}  // namespace

void RunRamIngest(const Options& opt, Report* report) {
  const gz::GraphZeppelinConfig config = BaseConfig(opt);
  RunIngest<SingleTarget>(
      opt, config,
      [&] { return std::make_unique<SingleTarget>(config, opt.tmp_dir); },
      report);
}

void RunDiskIngest(const Options& opt, Report* report) {
  gz::GraphZeppelinConfig config = BaseConfig(opt);
  config.buffering = gz::GraphZeppelinConfig::Buffering::kGutterTree;
  config.storage = gz::GraphZeppelinConfig::Storage::kDisk;
  RunIngest<SingleTarget>(
      opt, config,
      [&] { return std::make_unique<SingleTarget>(config, opt.tmp_dir); },
      report);
}

void RunShardedIngest(const Options& opt, Report* report) {
  gz::GraphZeppelinConfig config = BaseConfig(opt);
  config.num_workers = 1;
  config.heavy_hitter_width = kHeavyHitterWidth;
  gz::ShardClusterOptions options;
  options.checkpoint_dir = opt.tmp_dir;
  options.log_dir = opt.tmp_dir;
  // Checkpoints run once, explicitly, after the timed stream.
  options.checkpoint_interval_updates = 0;
  RunIngest<ClusterTarget>(
      opt, config,
      [&] { return std::make_unique<ClusterTarget>(config, options); },
      report);
}

}  // namespace gzb
