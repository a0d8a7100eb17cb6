#include "core/connectivity.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "dsu/dsu.h"
#include "stream/stream_file.h"
#include "util/check.h"

namespace gz {
namespace {

// Work-size floors below which a round's phase runs inline even when a
// pool exists: late Boruvka rounds are tiny and cost less than the pool
// barrier.
constexpr uint64_t kMinParallelSampleRoots = 1024;
constexpr size_t kMinParallelFoldPairs = 16;
constexpr uint64_t kSampleBlockNodes = 1024;

// A minimal fixed-size pool for query-time parallelism. One pool lives
// for the duration of a BoruvkaConnectivity call; each Run() is a
// barriered parallel-for over block indices with dynamic chunking
// (atomic grab), so imbalanced blocks spread across threads. Callers
// must keep distinct blocks data-disjoint; determinism comes from
// writing block results into per-block slots, never from run order.
class QueryThreadPool {
 public:
  explicit QueryThreadPool(int num_workers) {
    workers_.reserve(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~QueryThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Runs body(block) for every block in [0, num_blocks), returning once
  // all blocks are done. The calling thread participates.
  void Run(size_t num_blocks, const std::function<void(size_t)>& body) {
    if (workers_.empty() || num_blocks <= 1) {
      for (size_t b = 0; b < num_blocks; ++b) body(b);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      num_blocks_ = num_blocks;
      next_block_.store(0, std::memory_order_relaxed);
      busy_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();
    size_t b;
    while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
           num_blocks) {
      body(b);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    body_ = nullptr;
  }

 private:
  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(size_t)>* body;
      size_t num_blocks;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        body = body_;
        num_blocks = num_blocks_;
      }
      size_t b;
      while ((b = next_block_.fetch_add(1, std::memory_order_relaxed)) <
             num_blocks) {
        (*body)(b);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--busy_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_, done_cv_;
  const std::function<void(size_t)>* body_ = nullptr;
  std::atomic<size_t> next_block_{0};
  size_t num_blocks_ = 0;
  int busy_ = 0;
  uint64_t epoch_ = 0;
  bool stop_ = false;
};

// Per-block output slot of the sampling phase.
struct SampleBlock {
  EdgeList candidates;
  bool any_fail = false;
};

// The engine's per-node sketch state, in one of two modes:
//  - in place (the caller handed its sketches over): every node is
//    writable from the start, and a fold merges straight into the
//    caller's NodeSketch;
//  - copy-on-write (const input): every node reads the caller's sketch
//    until its "writable yet?" slot is filled. A representative gets
//    that private sum the first time it absorbs another component: the
//    XOR of the two inputs over the rounds still ahead, built in one
//    pass. A node that is folded away drops its private sum at once.
// Either way the sketch a query samples at (node, round) is the same
// XOR sum, so both modes answer bitwise identically.
class BoruvkaSketches {
 public:
  // Copy-on-write over `base`, which is never written.
  BoruvkaSketches(const std::vector<NodeSketch>& base, int last_round)
      : base_(base), last_round_(last_round), owned_(base.size()) {}
  // In place over `*sketches`.
  explicit BoruvkaSketches(std::vector<NodeSketch>* sketches)
      : base_(*sketches), in_place_(sketches), last_round_(0) {}

  const std::vector<NodeSketch>& base() const { return base_; }

  SketchSample Query(NodeId node, int round) const {
    return Sub(node, round).Query();
  }

  // Folds `src`'s sketch into `dst`'s over rounds (round, last): the
  // rounds at or before `round` are never queried again. Pairs of one
  // fold level are node-disjoint, so they may run concurrently.
  void Fold(NodeId dst, NodeId src, int round) {
    if (in_place_ != nullptr) {
      (*in_place_)[dst].MergeRounds((*in_place_)[src], round + 1);
      return;
    }
    std::unique_ptr<Owned>& mine = owned_[dst];
    if (mine == nullptr) {
      auto sum = std::make_unique<Owned>();
      sum->first_round = round + 1;
      sum->rounds.reserve(last_round_ - round - 1);
      for (int r = round + 1; r < last_round_; ++r) {
        sum->rounds.push_back(CubeSketch::Sum(Sub(dst, r), Sub(src, r)));
      }
      mine = std::move(sum);
    } else {
      for (int r = round + 1; r < last_round_; ++r) {
        mine->rounds[r - mine->first_round].Merge(Sub(src, r));
      }
    }
    owned_[src].reset();  // Dead: its sum now lives in dst.
  }

 private:
  // A representative's private sum of rounds [first_round, last_round).
  struct Owned {
    int first_round = 0;
    std::vector<CubeSketch> rounds;
  };

  const CubeSketch& Sub(NodeId node, int round) const {
    const Owned* mine = in_place_ == nullptr ? owned_[node].get() : nullptr;
    return mine != nullptr ? mine->rounds[round - mine->first_round]
                           : base_[node].subsketch(round);
  }

  const std::vector<NodeSketch>& base_;
  std::vector<NodeSketch>* in_place_ = nullptr;
  int last_round_;
  std::vector<std::unique_ptr<Owned>> owned_;
};

// Resolves the round window [first_round, last_round) for `sketches`.
int LastRound(const std::vector<NodeSketch>& sketches, int first_round,
              int num_rounds) {
  GZ_CHECK(!sketches.empty());
  GZ_CHECK(first_round >= 0 && first_round < sketches[0].rounds());
  return num_rounds < 0 ? sketches[0].rounds()
                        : std::min(sketches[0].rounds(),
                                   first_round + num_rounds);
}

}  // namespace

int ResolveQueryThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
}

ConnectivityResult Connectivity(const GraphSnapshot& snapshot,
                                int num_threads) {
  GZ_CHECK_MSG(snapshot.valid(), "querying an empty snapshot");
  return BoruvkaConnectivity(snapshot.sketches(), /*first_round=*/0,
                             /*num_rounds=*/-1,
                             ResolveQueryThreads(num_threads));
}

ConnectivityResult Connectivity(GraphSnapshot&& snapshot, int num_threads) {
  GZ_CHECK_MSG(snapshot.valid(), "querying an empty snapshot");
  std::vector<NodeSketch> scratch = snapshot.ReleaseSketches();
  return BoruvkaConnectivity(&scratch, /*first_round=*/0, /*num_rounds=*/-1,
                             ResolveQueryThreads(num_threads));
}

namespace {

// The Boruvka rounds [first_round, last_round) over either mode of
// sketch state.
ConnectivityResult RunBoruvka(BoruvkaSketches* sketches, int first_round,
                              int last_round, int num_threads) {
  const std::vector<NodeSketch>& sk = sketches->base();
  const uint64_t num_nodes = sk[0].params().num_nodes;
  GZ_CHECK_MSG(sk.size() == num_nodes,
               "need one node sketch per vertex");

  // Spawn the pool only when a parallel gate can actually fire: below
  // the sampling floor neither phase ever goes parallel, and thread
  // create/join would dominate the whole query on small graphs.
  const int threads = std::max(1, num_threads);
  std::unique_ptr<QueryThreadPool> pool;
  if (threads > 1 && num_nodes >= kMinParallelSampleRoots) {
    pool = std::make_unique<QueryThreadPool>(threads - 1);
  }

  ConnectivityResult result;
  Dsu dsu(num_nodes);
  // root_of freezes each node's representative at the top of the round;
  // the parallel phases read it instead of calling Dsu::Find, whose
  // path compression is not safe under concurrency.
  std::vector<NodeId> root_of(num_nodes);
  std::vector<int64_t> group_slot(num_nodes, -1);
  const size_t num_blocks =
      (num_nodes + kSampleBlockNodes - 1) / kSampleBlockNodes;
  std::vector<SampleBlock> blocks(num_blocks);
  bool complete = false;

  for (int round = first_round; round < last_round && !complete; ++round) {
    result.rounds_used = round - first_round + 1;
    for (uint64_t i = 0; i < num_nodes; ++i) {
      root_of[i] = static_cast<NodeId>(dsu.Find(i));
    }
    const uint64_t live_roots = dsu.num_sets();

    // Phase 1: sample one candidate cut edge per live component, in
    // parallel over contiguous node-id blocks. Per-block result slots
    // keep the gathered candidate order equal to the sequential
    // ascending-id order regardless of which thread ran which block.
    auto sample_block = [&](size_t b) {
      SampleBlock& out = blocks[b];
      out.candidates.clear();
      out.any_fail = false;
      const uint64_t begin = b * kSampleBlockNodes;
      const uint64_t end = std::min(begin + kSampleBlockNodes, num_nodes);
      for (uint64_t i = begin; i < end; ++i) {
        if (root_of[i] != i) continue;  // Only component representatives.
        const SketchSample sample =
            sketches->Query(static_cast<NodeId>(i), round);
        switch (sample.kind) {
          case SampleKind::kGood:
            out.candidates.push_back(IndexToEdge(sample.index, num_nodes));
            break;
          case SampleKind::kZero:
            break;  // Empty cut: this component is finished.
          case SampleKind::kFail:
            out.any_fail = true;
            break;
        }
      }
    };
    if (pool != nullptr && live_roots >= kMinParallelSampleRoots) {
      pool->Run(num_blocks, sample_block);
    } else {
      for (size_t b = 0; b < num_blocks; ++b) sample_block(b);
    }

    // Phase 2 (sequential): drive the DSU over the candidates in
    // ascending-representative order, recording forest edges. No sketch
    // is touched here, so the merge structure this induces is identical
    // for every thread count.
    bool any_fail = false;
    bool found_edge = false;
    for (const SampleBlock& block : blocks) {
      any_fail |= block.any_fail;
      for (const Edge& e : block.candidates) {
        const size_t ra = dsu.Find(e.u);
        const size_t rb = dsu.Find(e.v);
        if (ra == rb) continue;  // Already merged transitively this round.
        GZ_CHECK(dsu.Union(ra, rb));
        result.spanning_forest.push_back(e);
        found_edge = true;
      }
    }
    if (!found_edge && !any_fail) {
      complete = true;  // All cuts empty.
      break;
    }
    // After the window's final round nothing is queried again, so the
    // fold below would be dead work.
    if (round + 1 >= last_round) continue;

    // Phase 3: XOR-fold each merged component's sketches into its new
    // representative, as a pairwise tree reduction levelled ACROSS all
    // groups: every level folds disjoint (dst, src) pairs — dst keeps
    // the running sum, src is dead afterwards — halving each group's
    // survivor list until only its root remains. Parallelism therefore
    // spans components AND the inside of one giant component: a
    // star-like graph whose single group used to fold sequentially now
    // spreads n/2 merges per level over the pool, log2(n) levels deep,
    // with the same n-1 total merges. Every pair's sketches are
    // disjoint within a level, and the XOR sum is bitwise
    // order-independent, so the folded state is identical for any
    // thread count and any tree shape. Rounds at or before `round` are
    // never queried again and are skipped.
    struct FoldGroup {
      // nodes[0] is the new representative; the rest fold into it.
      std::vector<NodeId> nodes;
    };
    std::vector<FoldGroup> groups;
    for (uint64_t i = 0; i < num_nodes; ++i) {
      if (root_of[i] != i) continue;  // This round's roots only.
      const NodeId new_root = static_cast<NodeId>(dsu.Find(i));
      if (new_root == i) continue;    // Still its own representative.
      if (group_slot[new_root] < 0) {
        group_slot[new_root] = static_cast<int64_t>(groups.size());
        groups.push_back({{new_root}});
      }
      groups[group_slot[new_root]].nodes.push_back(static_cast<NodeId>(i));
    }
    std::vector<std::pair<NodeId, NodeId>> fold_pairs;
    auto fold_pair = [&](size_t p) {
      sketches->Fold(fold_pairs[p].first, fold_pairs[p].second, round);
    };
    for (;;) {
      fold_pairs.clear();
      for (FoldGroup& g : groups) {
        for (size_t k = 0; 2 * k + 1 < g.nodes.size(); ++k) {
          fold_pairs.push_back({g.nodes[2 * k], g.nodes[2 * k + 1]});
        }
      }
      if (fold_pairs.empty()) break;
      if (pool != nullptr && fold_pairs.size() >= kMinParallelFoldPairs) {
        pool->Run(fold_pairs.size(), fold_pair);
      } else {
        for (size_t p = 0; p < fold_pairs.size(); ++p) fold_pair(p);
      }
      for (FoldGroup& g : groups) {
        // Survivors are the even indices; nodes[0] (the root) stays 0.
        size_t keep = 0;
        for (size_t k = 0; k < g.nodes.size(); k += 2) {
          g.nodes[keep++] = g.nodes[k];
        }
        g.nodes.resize(keep);
      }
    }
    for (const FoldGroup& g : groups) group_slot[g.nodes[0]] = -1;
  }

  result.failed = !complete;
  result.num_components = dsu.num_sets();
  result.component_of.resize(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    result.component_of[i] = static_cast<NodeId>(dsu.Find(i));
  }
  return result;
}

}  // namespace

ConnectivityResult BoruvkaConnectivity(std::vector<NodeSketch>* sketches,
                                       int first_round, int num_rounds,
                                       int num_threads) {
  GZ_CHECK(sketches != nullptr);
  const int last_round = LastRound(*sketches, first_round, num_rounds);
  BoruvkaSketches in_place(sketches);
  return RunBoruvka(&in_place, first_round, last_round, num_threads);
}

ConnectivityResult BoruvkaConnectivity(const std::vector<NodeSketch>& sketches,
                                       int first_round, int num_rounds,
                                       int num_threads) {
  const int last_round = LastRound(sketches, first_round, num_rounds);
  BoruvkaSketches copy_on_write(sketches, last_round);
  return RunBoruvka(&copy_on_write, first_round, last_round, num_threads);
}

Status WriteSpanningForestStream(const ConnectivityResult& result,
                                 uint64_t num_nodes,
                                 const std::string& path) {
  StreamWriter writer;
  Status s = writer.Open(path, num_nodes);
  if (!s.ok()) return s;
  for (const Edge& e : result.spanning_forest) {
    s = writer.Append({e, UpdateType::kInsert});
    if (!s.ok()) return s;
  }
  return writer.Close();
}

std::vector<std::vector<NodeId>> ComponentsFromLabels(
    const std::vector<NodeId>& component_of) {
  std::vector<std::vector<NodeId>> components;
  std::vector<int64_t> slot(component_of.size(), -1);
  for (NodeId i = 0; i < component_of.size(); ++i) {
    const NodeId root = component_of[i];
    if (slot[root] < 0) {
      slot[root] = static_cast<int64_t>(components.size());
      components.emplace_back();
    }
    components[slot[root]].push_back(i);
  }
  return components;
}

}  // namespace gz
