// Shared pieces of the benchmark: run options, the result report,
// percentiles, input generation and the correctness reference.
#ifndef GZBENCH_COMMON_H_
#define GZBENCH_COMMON_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "core/graph_zeppelin.h"
#include "stream/stream_types.h"
#include "util/status.h"

namespace gzb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // Measured time per run.
  bool trace = false;
  std::string tmp_dir;    // Every file the run writes goes here.
  std::string trace_out;  // Span dump path ("" = none).
};

// Collects everything one run reports. Metrics keep insertion order;
// `info` holds provenance and sample counts as raw JSON values.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void InfoNum(const std::string& key, double value);
  void InfoStr(const std::string& key, const std::string& value);

  // One attempted operation; a failed one is counted and its first
  // messages kept. Failures do not abort the run.
  void Attempt(const gz::Status& status, const std::string& what);
  void Attempt(bool ok, const std::string& what);
  // A wrong answer: counted as a failed operation and fails the run.
  void Check(bool ok, const std::string& what);

  // A reported metric's value, or NaN when it was not reported.
  double Get(const std::string& name) const;

  bool correct() const { return wrong_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Value>> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> messages_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

// Tolerance of the stage-sum check in traced runs: the spans along the
// blocking path must cover at least this share of the measured time.
constexpr double kMinStageCoverage = 0.95;

// Nearest-rank percentile, q in (0, 1]. Failed operations enter as
// +infinity, so a percentile that reaches them is infinite.
double Percentile(std::vector<double> samples, double q);
constexpr double kInf = std::numeric_limits<double>::infinity();
double Median(std::vector<double> samples);

// Reports `<prefix>_p50_ms` / `<prefix>_p90_ms` from samples in
// seconds. An infinite percentile is reported as `cap_ms` (the
// longest any sample could have been observed within the run).
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples_s, double cap_ms);

// A generated update stream: the Kronecker graph of the given scale
// turned into an insert/delete stream, with its exact final edge set.
struct Stream {
  uint64_t num_nodes = 0;
  std::vector<gz::GraphUpdate> updates;
  std::vector<gz::NodeId> disconnected;  // Isolated at the end.
  gz::EdgeList final_edges;
};
Stream MakeKronStream(int scale, uint64_t seed);

// True when `result`'s components equal those of a union-find over
// `edges` on `num_nodes` nodes; *why explains a mismatch.
bool SamePartition(const gz::ConnectivityResult& result, uint64_t num_nodes,
                   const gz::EdgeList& edges, std::string* why);

// Child processes of this process that still exist (zombies included).
int CountLiveChildren();

// Total size of the regular files directly under `dir` whose name
// starts with `prefix`.
uint64_t DirBytes(const std::string& dir, const std::string& prefix);

// The per-node batch size the ingest workers see: a leaf gutter's
// capacity, as GraphZeppelin sizes it from its config.
size_t GutterCapacity(const gz::GraphZeppelinConfig& config);

// Single-layer measurements at a workload's geometry, for traced runs.
struct LayerInputs {
  gz::GraphZeppelinConfig config;      // The workload's sketch config.
  const Stream* stream = nullptr;
  const gz::GraphSnapshot* snapshot = nullptr;  // At the same geometry.
  int shards = 2;
  size_t span_updates = 0;  // Updates per API call in the workload.
  bool gutter_tree = false;  // Also measure the gutter tree.
  std::string tmp_dir;
};
void MeasureLayers(const LayerInputs& in, Report* report);

// The four workloads.
void RunRamIngest(const Options& opt, Report* report);
void RunDiskIngest(const Options& opt, Report* report);
void RunShardedIngest(const Options& opt, Report* report);
void RunServeWatch(const Options& opt, Report* report);

}  // namespace gzb

#endif  // GZBENCH_COMMON_H_
