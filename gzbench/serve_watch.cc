// serve-watch: reads and notifications competing with a live writer.
// Two authenticated tcp:// listener shards hold a kron9 graph plus
// reserved probe pairs. For a fixed phase, one writer streams recycled
// updates open loop at a fixed offered rate and toggles the probe
// edges on a fixed schedule, two readers query closed loop through
// their own QuerySessions, and one watcher session holds a kConnected
// standing query per probe pair with push subscriptions on.
//
// A run sets the fleet up kSetups times, so set-up time is a median
// too, and measures one phase on the last set-up (a traced run
// measures an untraced and a traced half-length phase on the last two).
// After each phase the quiesced fleet gives the exact answers and
// checkpoints.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/standing_query.h"
#include "distributed/query_session.h"
#include "distributed/shard_cluster.h"
#include "distributed/shard_process.h"
#include "distributed/shard_transport.h"
#include "trace.h"

namespace gzb {
namespace {

constexpr int kServeScale = 9;  // kron9: V = 512 stream nodes.
constexpr gz::NodeId kStreamNodes = gz::NodeId{1} << kServeScale;
constexpr int kShards = 2;
constexpr int kReaders = 2;
constexpr int kSetups = 5;
// The writer's open loop: kSpanUpdates every kSpanPeriodNs, 50k/s, in
// one Update call per period, so shard positions move once a period.
constexpr int64_t kSpanPeriodNs = 200'000'000;
constexpr size_t kSpanUpdates = 10000;
constexpr double kOfferedRate = kSpanUpdates / (kSpanPeriodNs * 1e-9);
// Exact answers and checkpoints taken after the phase, each reported
// as a median.
constexpr int kAnswerProbes = 15;
constexpr int kCheckpoints = 11;
// Readers refresh when the cluster has moved: they poll its position
// every kPollNs and query kSettleNs after seeing it move (both shards'
// positions land within that), so a refresh starts right after a move
// and rarely straddles the next one.
constexpr int64_t kPollNs = 5'000'000;
constexpr int64_t kSettleNs = 10'000'000;
// Each span carries kTogglesPerSlot probe toggles at its end,
// round-robin over the pairs (reserved nodes after the stream's), so
// each pair flips once per kPairPeriodNs: its notification deadline.
// Ten toggles a second give a 10 s run the 100 samples a p90 needs.
constexpr int kTogglesPerSlot = 2;
constexpr int kProbePairs = 10;
constexpr int64_t kPairPeriodNs =
    kProbePairs / kTogglesPerSlot * kSpanPeriodNs;
constexpr size_t kPreloadSpan = size_t{1} << 14;

gz::Edge ProbeEdge(int pair) {
  return gz::Edge(kStreamNodes + 2 * pair, kStreamNodes + 2 * pair + 1);
}

struct SpanTotals {
  double spans_s = 0;     // Spans with the given name.
  double children_s = 0;  // Their direct children.
};
SpanTotals SpanAndChildSeconds(const std::string& name) {
  const std::vector<SpanRecord> spans = GlobalTracer().spans();
  std::set<uint64_t> ids;
  SpanTotals out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) {
      out.spans_s += s.seconds();
      ids.insert(s.id);
    }
  }
  for (const SpanRecord& s : spans) {
    if (ids.count(s.parent)) out.children_s += s.seconds();
  }
  return out;
}

void SleepUntilNs(int64_t ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns)));
}

struct Toggle {
  int pair = 0;
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;  // When the writer began sending its span.
};

struct Note {
  int pair = 0;
  bool connected = false;
  int64_t fired_ns = 0;
};

// Everything one phase measures.
struct Phase {
  bool measured = false;
  bool traced = false;
  double setup_s = 0;
  double rate = 0;  // Achieved writer rate.
  double ram_bytes = 0, fold_bytes = 0, checkpoint_bytes = 0;
  std::vector<double> answer_s, checkpoint_s, flush_s, fold_s;
  int rounds = 0;
  std::vector<double> query_s, refresh_s, connectivity_s, notify_s;
  std::vector<double> writer_call_s, late_s;
  double refresh_rounds_sum = 0;
  uint64_t queries = 0, refreshes = 0, range_pulls = 0;
  uint64_t evaluations = 0, notifications = 0, notify_streams = 0;
  uint64_t updates_sent = 0;
  double coverage = 1.0;
};

class ServeWatch {
 public:
  ServeWatch(const Options& opt, Report* report)
      : opt_(opt), report_(report) {}

  void Run();

 private:
  gz::Status SetUp();
  void RunPhase(int64_t length_ns, Phase* phase);
  void WriterLoop(int64_t start_ns, int64_t toggle_end_ns, int64_t end_ns,
                  Phase* phase);
  // Sends the next kSpanUpdates recycled updates, then `toggles`, in one
  // Update call.
  void SendSpan(const std::vector<gz::GraphUpdate>& toggles, Phase* phase);
  // Queries closed loop, one query per cluster move, until the writer
  // is done.
  void ReaderLoop(gz::QuerySession* session, Phase* phase, std::mutex* mu);
  // Exact answers and checkpoints of the quiesced fleet.
  void AnswerAndCheckpoint(Phase* phase);
  void MatchNotifications(const std::vector<Toggle>& toggles,
                          const std::vector<Note>& notes, Phase* phase);
  void Quiesce();
  // Report calls from the load threads.
  void Attempt(const gz::Status& status, const char* what) {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_->Attempt(status, what);
  }
  void TearDown();

  gz::EdgeList ExpectedEdges() const;

  const Options& opt_;
  Report* report_;
  std::mutex report_mu_;
  Stream stream_;
  uint64_t num_nodes_ = 0;
  gz::GraphZeppelinConfig config_;
  std::string secret_;

  // One set-up's fleet.
  std::vector<std::unique_ptr<gz::ListenerShard>> listeners_;
  std::vector<std::string> endpoints_;
  std::unique_ptr<gz::ShardCluster> cluster_;
  std::vector<std::unique_ptr<gz::QuerySession>> readers_;
  std::unique_ptr<gz::QuerySession> watcher_;
  std::map<uint64_t, int> pair_of_query_;
  std::mutex notes_mu_;
  std::condition_variable notes_cv_;
  std::vector<Note> notes_;

  // Writer-side record of one phase.
  uint64_t recycled_ = 0;  // Stream updates replayed after the preload.
  std::vector<bool> probe_on_;
  std::vector<Toggle> toggles_;
  std::vector<gz::GraphUpdate> span_buf_;
  int64_t last_span_end_ns_ = 0;
  std::atomic<bool> writer_done_{false};
  gz::ConnectivityResult answer_;
  gz::NodeSketchParams params_;  // Of the folded snapshot.
};

gz::EdgeList ServeWatch::ExpectedEdges() const {
  // Preload leaves final_edges; each replayed update then toggles one
  // edge (inserts and deletes are both XOR toggles of the sketch), and
  // each probe pair contributes its edge while switched on.
  std::vector<bool> present(gz::NumPossibleEdges(num_nodes_), false);
  for (const gz::Edge& e : stream_.final_edges) {
    present[gz::EdgeToIndex(e, num_nodes_)] = true;
  }
  const size_t len = stream_.updates.size();
  for (uint64_t i = 0; i < recycled_; ++i) {
    const uint64_t idx = gz::EdgeToIndex(stream_.updates[i % len].edge,
                                         num_nodes_);
    present[idx] = !present[idx];
  }
  gz::EdgeList edges;
  for (uint64_t idx = 0; idx < present.size(); ++idx) {
    if (present[idx]) edges.push_back(gz::IndexToEdge(idx, num_nodes_));
  }
  for (int p = 0; p < kProbePairs; ++p) {
    if (probe_on_[p]) edges.push_back(ProbeEdge(p));
  }
  return edges;
}

gz::Status ServeWatch::SetUp() {
  gz::Status s = gz::StartListenerShards(
      gz::DefaultShardBinary(), kShards, opt_.tmp_dir,
      opt_.tmp_dir + "/gz_listener_", secret_, &listeners_, &endpoints_);
  if (!s.ok()) return s;
  gz::ShardClusterOptions copts;
  copts.auth_secret = secret_;
  copts.shard_endpoints = endpoints_;
  copts.checkpoint_dir = opt_.tmp_dir;
  copts.log_dir = opt_.tmp_dir;
  copts.checkpoint_interval_updates = 0;
  cluster_ = std::make_unique<gz::ShardCluster>(config_, kShards, copts);
  s = cluster_->Start();
  if (!s.ok()) return s;
  for (size_t off = 0; off < stream_.updates.size(); off += kPreloadSpan) {
    s = cluster_->Update(stream_.updates.data() + off,
                         std::min(kPreloadSpan, stream_.updates.size() - off));
    if (!s.ok()) return s;
  }
  s = cluster_->Flush();
  if (!s.ok()) return s;

  gz::QuerySessionOptions qopts;
  qopts.endpoints = endpoints_;
  qopts.auth_secret = secret_;
  for (int r = 0; r < kReaders; ++r) {
    readers_.push_back(std::make_unique<gz::QuerySession>(qopts));
    s = readers_.back()->Connect();
    if (!s.ok()) return s;
    const gz::GraphSnapshot* snap = nullptr;
    s = readers_.back()->Snapshot(&snap);  // Cold build of its view.
    if (!s.ok()) return s;
  }
  watcher_ = std::make_unique<gz::QuerySession>(qopts);
  s = watcher_->Connect();
  if (!s.ok()) return s;
  pair_of_query_.clear();
  for (int p = 0; p < kProbePairs; ++p) {
    const gz::Edge e = ProbeEdge(p);
    const uint64_t id = watcher_->AddStandingQuery(
        {gz::StandingQueryKind::kConnected, e.u, e.v});
    pair_of_query_[id] = p;
  }
  {
    std::lock_guard<std::mutex> lock(notes_mu_);
    notes_.clear();
  }
  gz::StandingWatchOptions wopts;
  wopts.subscribe = true;
  wopts.threads = 1;
  s = watcher_->StartWatch(
      wopts, [this](const gz::StandingQueryNotification& n,
                    const gz::GraphSnapshot&) {
        const int64_t now = NowNs();
        const auto it = pair_of_query_.find(n.query_id);
        if (it == pair_of_query_.end()) return;
        std::lock_guard<std::mutex> lock(notes_mu_);
        notes_.push_back({it->second, n.answer.connected, now});
        notes_cv_.notify_all();
      });
  if (!s.ok()) return s;
  // The initial evaluation reports every pair disconnected.
  std::unique_lock<std::mutex> lock(notes_mu_);
  if (!notes_cv_.wait_for(lock, std::chrono::seconds(30), [&] {
        return notes_.size() >= static_cast<size_t>(kProbePairs);
      })) {
    return gz::Status::DeadlineExceeded("initial standing-query answers");
  }
  bool all_off = notes_.size() == static_cast<size_t>(kProbePairs);
  for (const Note& n : notes_) all_off = all_off && !n.connected;
  report_->Check(all_off, "probe pairs start disconnected");
  notes_.clear();
  return gz::Status::Ok();
}

void ServeWatch::SendSpan(const std::vector<gz::GraphUpdate>& toggles,
                          Phase* phase) {
  const size_t len = stream_.updates.size();
  span_buf_.resize(kSpanUpdates);
  for (size_t i = 0; i < kSpanUpdates; ++i) {
    span_buf_[i] = stream_.updates[(recycled_ + i) % len];
  }
  span_buf_.insert(span_buf_.end(), toggles.begin(), toggles.end());
  Span s("loadgen.span");
  const int64_t call_start = NowNs();
  const gz::Status st = [&] {
    Span call("distributed.update");
    return cluster_->Update(span_buf_.data(), span_buf_.size());
  }();
  last_span_end_ns_ = NowNs();
  phase->writer_call_s.push_back((last_span_end_ns_ - call_start) * 1e-9);
  s.End();
  Attempt(st, "update span");
  if (st.ok()) {
    recycled_ += kSpanUpdates;
    phase->updates_sent += span_buf_.size();
  }
}

void ServeWatch::WriterLoop(int64_t start_ns, int64_t toggle_end_ns,
                            int64_t end_ns, Phase* phase) {
  std::vector<gz::GraphUpdate> toggles;
  std::vector<int> pairs;
  bool ram_sampled = false;
  int slot = 0;
  for (int64_t due = start_ns; due < end_ns; due += kSpanPeriodNs, ++slot) {
    toggles.clear();
    pairs.clear();
    for (int k = 0; k < kTogglesPerSlot && due < toggle_end_ns; ++k) {
      const int pair = (slot * kTogglesPerSlot + k) % kProbePairs;
      toggles.push_back({ProbeEdge(pair), probe_on_[pair]
                                              ? gz::UpdateType::kDelete
                                              : gz::UpdateType::kInsert});
      pairs.push_back(pair);
    }
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    phase->late_s.push_back((sent - due) * 1e-9);
    const uint64_t before = phase->updates_sent;
    SendSpan(toggles, phase);
    if (phase->updates_sent != before) {
      for (const int pair : pairs) {
        probe_on_[pair] = !probe_on_[pair];
        toggles_.push_back({pair, due, sent});
      }
    }
    if (!ram_sampled && 2 * (due - start_ns) >= end_ns - start_ns) {
      ram_sampled = true;
      uint64_t ram = 0;
      for (const int shard : cluster_->ActiveShards()) {
        gz::Result<gz::ShardStats> stats = cluster_->Stats(shard);
        Attempt(stats.status(), "mid-phase shard stats");
        if (stats.ok()) ram += stats.value().ram_bytes;
      }
      phase->ram_bytes = static_cast<double>(ram);
    }
  }
  phase->rate = static_cast<double>(phase->updates_sent) /
                ((last_span_end_ns_ - start_ns) * 1e-9);
}

void ServeWatch::AnswerAndCheckpoint(Phase* phase) {
  for (int k = 0; k < kAnswerProbes; ++k) {
    SendSpan({}, phase);
    gz::Status st;
    {
      Span s("distributed.flush");
      st = cluster_->Flush();
      phase->flush_s.push_back(s.End());
    }
    report_->Attempt(st, "flush");
    gz::Result<gz::GraphSnapshot> folded = gz::Status::Internal("not folded");
    {
      Span s("distributed.fold");
      folded = cluster_->Snapshot();
      phase->fold_s.push_back(s.End());
    }
    report_->Attempt(folded.status(), "fold");
    if (folded.ok()) {
      params_ = folded.value().params();
      phase->fold_bytes =
          static_cast<double>(kShards * folded.value().SerializedSize());
      Span s("core.connectivity");
      answer_ = gz::Connectivity(std::move(folded).value());
    }
    phase->answer_s.push_back((NowNs() - last_span_end_ns_) * 1e-9);
    phase->rounds = answer_.rounds_used;
  }
  for (int k = 0; k < kCheckpoints; ++k) {
    Span s("distributed.checkpoint");
    report_->Attempt(cluster_->Checkpoint(), "checkpoint");
    phase->checkpoint_s.push_back(s.End());
  }
  phase->checkpoint_bytes =
      static_cast<double>(DirBytes(opt_.tmp_dir, "gz_shard_ckpt"));
  uint64_t ram = 0;
  for (const int shard : cluster_->ActiveShards()) {
    gz::Result<gz::ShardStats> stats = cluster_->Stats(shard);
    report_->Attempt(stats.status(), "shard stats");
    if (stats.ok()) ram += stats.value().ram_bytes;
  }
  phase->ram_bytes = std::max(phase->ram_bytes, static_cast<double>(ram));
}

void ServeWatch::ReaderLoop(gz::QuerySession* session, Phase* phase,
                            std::mutex* mu) {
  std::vector<double> query_s, refresh_s, connectivity_s;
  double rounds = 0;
  while (true) {
    bool fresh = true;
    while (fresh && !writer_done_.load()) {
      // A failed poll ends the wait; the query then reports the failure.
      if (!session->PollPositions(&fresh).ok()) break;
      SleepUntilNs(NowNs() + (fresh ? kPollNs : kSettleNs));
    }
    if (writer_done_.load()) break;
    const int64_t t0 = NowNs();
    Span q("reader.query");
    const gz::GraphSnapshot* snap = nullptr;
    gz::Status st;
    {
      Span s("distributed.refresh");
      st = session->Snapshot(&snap);
      refresh_s.push_back(s.End());
    }
    rounds += session->last_refresh_rounds();
    gz::ConnectivityResult r;
    if (st.ok()) {
      Span s("core.connectivity");
      r = gz::Connectivity(*snap, 1);
      connectivity_s.push_back(s.End());
    }
    q.End();
    const bool ok = st.ok() && !r.failed;
    query_s.push_back(ok ? (NowNs() - t0) * 1e-9 : kInf);
    Attempt(ok ? gz::Status::Ok()
               : (st.ok() ? gz::Status::Internal("query failed") : st),
            "reader query");
  }
  std::lock_guard<std::mutex> lock(*mu);
  phase->query_s.insert(phase->query_s.end(), query_s.begin(), query_s.end());
  phase->refresh_s.insert(phase->refresh_s.end(), refresh_s.begin(),
                          refresh_s.end());
  phase->connectivity_s.insert(phase->connectivity_s.end(),
                               connectivity_s.begin(), connectivity_s.end());
  phase->refresh_rounds_sum += rounds;
  phase->queries += query_s.size();
  phase->refreshes += session->cache().refreshes();
  phase->range_pulls += session->cache().range_pulls();
}

void ServeWatch::MatchNotifications(const std::vector<Toggle>& toggles,
                                    const std::vector<Note>& notes,
                                    Phase* phase) {
  // Per pair, toggle k (1-based) leaves the probe connected iff k is
  // odd. A notification reports the state after the latest toggle of
  // that parity sent before it fired; toggles it skips were merged
  // into one evaluation and never notified.
  for (int p = 0; p < kProbePairs; ++p) {
    std::vector<const Toggle*> mine;
    for (const Toggle& t : toggles) {
      if (t.pair == p) mine.push_back(&t);
    }
    std::vector<double> latency(mine.size(), kInf);
    size_t matched = 0;  // Toggles accounted for so far.
    for (const Note& n : notes) {
      if (n.pair != p) continue;
      size_t k = 0;
      for (size_t j = mine.size(); j > matched; --j) {
        if (mine[j - 1]->sent_ns <= n.fired_ns && (j % 2 == 1) == n.connected) {
          k = j;
          break;
        }
      }
      report_->Check(k != 0, "probe " + std::to_string(p) +
                                 " notification matches a sent toggle");
      if (k == 0) continue;
      const Toggle& t = *mine[k - 1];
      if (n.fired_ns <= t.scheduled_ns + kPairPeriodNs) {
        latency[k - 1] = (n.fired_ns - t.scheduled_ns) * 1e-9;
      }
      matched = k;
    }
    for (const double l : latency) {
      report_->Attempt(!std::isinf(l), "notification within its deadline");
      phase->notify_s.push_back(l);
    }
  }
}

void ServeWatch::Quiesce() {
  std::string why;
  const gz::EdgeList expect = ExpectedEdges();
  report_->Check(SamePartition(answer_, num_nodes_, expect, &why),
                 "components equal the reference partition " + why);
  // A quiesced reader serves exactly the coordinator's fold.
  const gz::GraphSnapshot* served = nullptr;
  const gz::Status st = readers_[0]->Snapshot(&served);
  report_->Attempt(st, "quiesced reader snapshot");
  gz::Result<gz::GraphSnapshot> folded = cluster_->Snapshot();
  report_->Attempt(folded.status(), "quiesced fold");
  report_->Check(st.ok() && folded.ok() && *served == folded.value(),
                 "quiesced reader snapshot is bitwise equal to the fold");
}

void ServeWatch::RunPhase(int64_t length_ns, Phase* phase) {
  recycled_ = 0;
  writer_done_.store(false);
  probe_on_.assign(kProbePairs, false);
  toggles_.clear();
  // Toggles are scheduled for `length_ns`; the load runs one pair
  // period longer so every toggle meets its deadline under load.
  const int64_t start = NowNs() + 20'000'000;
  const int64_t toggle_end = start + length_ns;
  const int64_t end = toggle_end + kPairPeriodNs;
  std::mutex mu;
  std::thread writer([&] { WriterLoop(start, toggle_end, end, phase); });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SleepUntilNs(start);
      ReaderLoop(readers_[r].get(), phase, &mu);
    });
  }
  writer.join();
  writer_done_.store(true);
  for (std::thread& t : readers) t.join();
  phase->notify_streams = watcher_->watch_notify_streams();
  watcher_->StopWatch();
  std::vector<Note> notes;
  {
    std::lock_guard<std::mutex> lock(notes_mu_);
    notes = notes_;
  }
  phase->evaluations = watcher_->watch_evaluations();
  phase->notifications = watcher_->watch_notifications();
  MatchNotifications(toggles_, notes, phase);

  // Coverage of the readers' blocking path by their child spans.
  if (phase->traced) {
    const SpanTotals q = SpanAndChildSeconds("reader.query");
    phase->coverage = q.spans_s > 0 ? q.children_s / q.spans_s : 0;
  }
  AnswerAndCheckpoint(phase);
  Quiesce();
}

void ServeWatch::TearDown() {
  if (watcher_) watcher_->StopWatch();
  watcher_.reset();
  readers_.clear();
  if (cluster_) {
    report_->Attempt(cluster_->Shutdown(), "cluster shutdown");
    cluster_.reset();
  }
  for (auto& l : listeners_) l->Stop();
  listeners_.clear();
  endpoints_.clear();
}

void ServeWatch::Run() {
  int64_t t = NowNs();
  stream_ = MakeKronStream(kServeScale, opt_.seed);
  const double gen_s = (NowNs() - t) * 1e-9;
  num_nodes_ = stream_.num_nodes + 2 * kProbePairs;
  config_.num_nodes = num_nodes_;
  config_.seed = opt_.seed * 0x2545F4914F6CDD1DULL + 13;
  config_.num_workers = 1;
  config_.disk_dir = opt_.tmp_dir;
  secret_ = "gzbench-" + std::to_string(opt_.seed);
  report_->InfoNum("num_nodes", static_cast<double>(num_nodes_));
  report_->InfoNum("stream_updates", static_cast<double>(stream_.updates.size()));
  report_->InfoNum("offered_updates_per_s", kOfferedRate);

  const int first_measured = opt_.trace ? kSetups - 2 : kSetups - 1;
  const int64_t phase_ns =
      static_cast<int64_t>(opt_.seconds * 1e9 / (kSetups - first_measured));
  std::vector<Phase> phases(kSetups);
  for (int i = 0; i < kSetups; ++i) {
    Phase& phase = phases[i];
    phase.measured = i >= first_measured;
    phase.traced = opt_.trace && i == kSetups - 1;
    t = NowNs();
    const gz::Status st = SetUp();
    phase.setup_s = gen_s + (NowNs() - t) * 1e-9;
    report_->Attempt(st, "set-up");
    if (!st.ok()) {
      TearDown();
      return;
    }
    if (phase.measured) {
      GlobalTracer().set_enabled(phase.traced);
      RunPhase(phase_ns, &phase);
      GlobalTracer().set_enabled(false);
    }
    if (phase.traced) {
      const gz::GraphSnapshot* snap = nullptr;
      report_->Attempt(readers_[0]->Snapshot(&snap), "layer input snapshot");
      LayerInputs in;
      in.config = config_;
      in.stream = &stream_;
      in.snapshot = snap;
      in.shards = kShards;
      in.span_updates = kSpanUpdates;
      in.tmp_dir = opt_.tmp_dir;
      MeasureLayers(in, report_);
    }
    TearDown();
  }

  auto median = [&](bool traced, auto field) {
    std::vector<double> v;
    for (const Phase& p : phases) {
      if (p.measured && p.traced == traced) v.push_back(field(p));
    }
    return Median(v);
  };
  auto pooled = [&](bool traced, std::vector<double> Phase::*field) {
    std::vector<double> v;
    for (const Phase& p : phases) {
      if (p.measured && p.traced == traced) {
        v.insert(v.end(), (p.*field).begin(), (p.*field).end());
      }
    }
    return v;
  };
  const double cap_ms = 1e3 * (opt_.seconds + kPairPeriodNs * 1e-9);
  if (!opt_.trace) {
    std::vector<double> setups;
    for (const Phase& p : phases) setups.push_back(p.setup_s);
    report_->Metric("setup_s", Median(setups), "s");
    report_->Metric("ingest_updates_per_s",
                    median(false, [](const Phase& p) { return p.rate; }), "1/s");
    report_->Metric("answer_s", Median(pooled(false, &Phase::answer_s)), "s");
    report_->Metric("ram_mb",
                    median(false, [](const Phase& p) { return p.ram_bytes; }) / 1e6,
                    "MB");
    report_->Metric("checkpoint_s", Median(pooled(false, &Phase::checkpoint_s)),
                    "s");
    ReportLatency(report_, "query", pooled(false, &Phase::query_s), cap_ms);
    ReportLatency(report_, "notify", pooled(false, &Phase::notify_s), cap_ms);
    return;
  }

  const Phase& tp = phases[kSetups - 1];
  const std::vector<double> untraced_q = pooled(false, &Phase::query_s);
  report_->Metric("trace.overhead_pct",
                  100.0 * (Percentile(tp.query_s, 0.5) /
                               Percentile(untraced_q, 0.5) -
                           1.0),
                  "%");
  report_->Metric("trace.stage_coverage", tp.coverage, "ratio");
  report_->Check(tp.coverage >= kMinStageCoverage && tp.coverage <= 1.0 + 1e-9,
                 "reader spans cover the measured query time");
  // The writer's distributed.update calls, children of loadgen.span.
  report_->Metric("distributed.update_call_ns",
                  1e9 * SpanAndChildSeconds("loadgen.span").children_s /
                      static_cast<double>(tp.updates_sent),
                  "ns");
  report_->Metric("core.ingest_ns_per_update", 1e9 / tp.rate, "ns");
  report_->Metric("distributed.writer_call_p90_ms",
                  1e3 * Percentile(tp.writer_call_s, 0.9), "ms");
  report_->Metric("loadgen.late_p90_ms", 1e3 * Percentile(tp.late_s, 0.9),
                  "ms");
  report_->Metric("distributed.refresh_ms_p50",
                  1e3 * Percentile(tp.refresh_s, 0.5), "ms");
  report_->Metric("distributed.refresh_ms_p90",
                  1e3 * Percentile(tp.refresh_s, 0.9), "ms");
  report_->Metric("distributed.refresh_rounds",
                  tp.refresh_rounds_sum / static_cast<double>(tp.queries),
                  "count");
  // Each refresh pull covers a shard's whole node range.
  const uint64_t per_pull =
      gz::GraphSnapshot::SerializedRangeSizeFor(params_, 0, num_nodes_);
  report_->Metric("distributed.pulled_mb_per_refresh",
                  tp.refreshes ? static_cast<double>(tp.range_pulls * per_pull) /
                                     static_cast<double>(tp.refreshes) / 1e6
                               : 0.0,
                  "MB");
  report_->Metric("distributed.notify_streams",
                  static_cast<double>(tp.notify_streams), "count");
  report_->Metric("distributed.flush_s", Median(tp.flush_s), "s");
  report_->Metric("distributed.fold_s", Median(tp.fold_s), "s");
  report_->Metric("distributed.fold_mb", tp.fold_bytes / 1e6, "MB");
  report_->Metric("distributed.checkpoint_mb", tp.checkpoint_bytes / 1e6, "MB");
  report_->Metric("core.connectivity_s", Median(tp.connectivity_s), "s");
  report_->Metric("core.boruvka_rounds", tp.rounds, "count");
  report_->Metric("core.snapshot_mb", tp.fold_bytes / kShards / 1e6, "MB");
  report_->Metric("core.cache_refresh_ratio",
                  static_cast<double>(tp.refreshes) /
                      static_cast<double>(tp.queries),
                  "ratio");
  report_->Metric("core.cache_range_pulls", static_cast<double>(tp.range_pulls),
                  "count");
  report_->Metric("core.standing_useful_ratio",
                  tp.evaluations ? static_cast<double>(tp.notifications) /
                                       static_cast<double>(tp.evaluations)
                                 : 0.0,
                  "ratio");
  report_->InfoNum("traced_queries", static_cast<double>(tp.queries));
  report_->InfoNum("traced_notifications", static_cast<double>(tp.notify_s.size()));
}

}  // namespace

void RunServeWatch(const Options& opt, Report* report) {
  ServeWatch(opt, report).Run();
}

}  // namespace gzb
