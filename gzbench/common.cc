#include "common.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "dsu/dsu.h"
#include "sketch/node_sketch.h"
#include "stream/kronecker_generator.h"
#include "stream/stream_transform.h"
#include "trace.h"

namespace gzb {

// ---- Tracing ----------------------------------------------------------------

namespace {
thread_local Span* tl_current_span = nullptr;
}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::map<std::string, SpanStats> Tracer::Summarize(bool roots_only) const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<uint64_t, double> child_s;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) child_s[s.parent] += s.seconds();
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& s : all) {
    if (roots_only && s.parent != 0) continue;
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_s += s.seconds();
    const auto it = child_s.find(s.id);
    st.self_s += s.seconds() - (it == child_s.end() ? 0.0 : it->second);
    st.durations_s.push_back(s.seconds());
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name), outer_(tl_current_span) {
  Tracer& tracer = GlobalTracer();
  if (tracer.enabled()) {
    id_ = tracer.NextId();
    parent_ = outer_ != nullptr ? outer_->id_ : 0;
    request_ = outer_ != nullptr && outer_->request_ != 0 ? outer_->request_
                                                          : id_;
  }
  tl_current_span = this;
  start_ns_ = NowNs();
}

double Span::End() {
  if (!ended_) {
    end_ns_ = NowNs();
    ended_ = true;
    tl_current_span = outer_;
    if (id_ != 0) {
      SpanRecord r;
      r.name = name_;
      r.start_ns = start_ns_;
      r.end_ns = end_ns_;
      r.id = id_;
      r.parent = parent_;
      r.request = request_;
      GlobalTracer().Record(r);
    }
  }
  return (end_ns_ - start_ns_) * 1e-9;
}

// ---- Report -----------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}
}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

double Report::Get(const std::string& name) const {
  for (const auto& [n, v] : metrics_) {
    if (n == name) return v.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void Report::InfoNum(const std::string& key, double value) {
  info_[key] = JsonNumber(value);
}

void Report::InfoStr(const std::string& key, const std::string& value) {
  info_[key] = JsonString(value);
}

void Report::Attempt(const gz::Status& status, const std::string& what) {
  Attempt(status.ok(), status.ok() ? what : what + ": " + status.ToString());
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 20) messages_.push_back("failed: " + what);
}

void Report::Check(bool ok, const std::string& what) {
  Attempt(ok, what);
  if (!ok) {
    ++wrong_;
    if (messages_.size() < 40) messages_.push_back("WRONG: " + what);
  }
}

std::string Report::ToJson() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    o << (i ? ", " : "") << JsonString(metrics_[i].first)
      << ": {\"value\": " << JsonNumber(metrics_[i].second.value)
      << ", \"unit\": " << JsonString(metrics_[i].second.unit) << "}";
  }
  o << "}, \"info\": {";
  size_t i = 0;
  for (const auto& [k, v] : info_) {
    o << (i++ ? ", " : "") << JsonString(k) << ": " << v;
  }
  o << "}, \"messages\": [";
  for (size_t j = 0; j < messages_.size(); ++j) {
    o << (j ? ", " : "") << JsonString(messages_[j]);
  }
  o << "]}";
  return o.str();
}

// ---- Statistics -------------------------------------------------------------

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& samples_s, double cap_ms) {
  for (const auto& [q, suffix] :
       {std::pair<double, const char*>{0.5, "_p50_ms"}, {0.9, "_p90_ms"}}) {
    double ms = 1e3 * Percentile(samples_s, q);
    if (std::isinf(ms)) ms = cap_ms;
    report->Metric(prefix + suffix, ms, "ms");
  }
  size_t failed = 0;
  for (const double s : samples_s) failed += std::isinf(s) ? 1 : 0;
  report->InfoNum(prefix + "_samples", static_cast<double>(samples_s.size()));
  report->InfoNum(prefix + "_failed_samples", static_cast<double>(failed));
}

// ---- Inputs and the reference -----------------------------------------------

Stream MakeKronStream(int scale, uint64_t seed) {
  gz::KroneckerParams kp;
  kp.scale = scale;
  kp.density = 0.5;
  kp.seed = seed;
  const gz::KroneckerGenerator gen(kp);
  gz::StreamTransformParams tp;
  tp.num_nodes = gen.num_nodes();
  tp.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  gz::StreamTransformResult r = gz::BuildStream(gen.Generate(), tp);
  Stream s;
  s.num_nodes = gen.num_nodes();
  s.updates = std::move(r.updates);
  s.disconnected = std::move(r.disconnected_nodes);
  s.final_edges = std::move(r.final_edges);
  return s;
}

bool SamePartition(const gz::ConnectivityResult& result, uint64_t num_nodes,
                   const gz::EdgeList& edges, std::string* why) {
  if (result.failed) {
    *why = "connectivity query reported failure";
    return false;
  }
  if (result.component_of.size() != num_nodes) {
    *why = "component labels cover " +
           std::to_string(result.component_of.size()) + " of " +
           std::to_string(num_nodes) + " nodes";
    return false;
  }
  gz::Dsu dsu(num_nodes);
  for (const gz::Edge& e : edges) dsu.Union(e.u, e.v);
  const std::vector<size_t> expect = dsu.Labels();
  // A partition matches when the label maps are a bijection.
  std::unordered_map<size_t, gz::NodeId> fwd;
  std::unordered_map<gz::NodeId, size_t> back;
  for (uint64_t v = 0; v < num_nodes; ++v) {
    const auto [f, fnew] = fwd.emplace(expect[v], result.component_of[v]);
    const auto [b, bnew] = back.emplace(result.component_of[v], expect[v]);
    if (f->second != result.component_of[v] || b->second != expect[v]) {
      *why = "node " + std::to_string(v) + " is in the wrong component (" +
             std::to_string(result.num_components) + " components, expected " +
             std::to_string(dsu.num_sets()) + ")";
      return false;
    }
  }
  return true;
}

int CountLiveChildren() {
  const pid_t self = ::getpid();
  int children = 0;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return 0;
  while (const dirent* ent = ::readdir(proc)) {
    if (ent->d_name[0] < '0' || ent->d_name[0] > '9') continue;
    std::ifstream stat(std::string("/proc/") + ent->d_name + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesised command name: state, ppid, ...
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    long ppid = 0;
    if (rest >> state >> ppid && ppid == self) ++children;
  }
  ::closedir(proc);
  return children;
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  ::closedir(d);
  return total;
}

size_t GutterCapacity(const gz::GraphZeppelinConfig& config) {
  gz::NodeSketchParams sp;
  sp.num_nodes = config.num_nodes;
  sp.seed = config.seed;
  sp.cols = config.cols;
  sp.rounds = config.rounds;
  const gz::NodeSketch prototype(sp);
  return std::max<size_t>(
      1, static_cast<size_t>(config.gutter_fraction *
                             static_cast<double>(prototype.ByteSize())) /
             sizeof(uint64_t));
}

}  // namespace gzb
