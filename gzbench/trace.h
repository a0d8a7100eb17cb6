// Span tracing for the benchmark's traced runs. Spans are recorded
// from outside the library: each wraps one call into a layer's public
// API (name, start, end, parent span, request id). They are kept in
// memory and written out once the run ends, so recording costs two
// clock reads and one locked push per span.
//
// A Span always measures its own duration, traced or not: the
// untraced runs time the same boundaries with the same code, and only
// the recording is switched off.
#ifndef GZBENCH_TRACE_H_
#define GZBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gzb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // Static string: "<layer>.<operation>".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span.
  uint64_t request = 0;  // Shared by every span of one request.

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

// Per-name aggregate over recorded spans. Self time is a span's
// duration minus the time its child spans cover; children always run
// on their parent's thread, nested inside it, so that is a plain sum.
struct SpanStats {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Aggregates by name. `roots_only` keeps spans without a parent.
  std::map<std::string, SpanStats> Summarize(bool roots_only) const;

  // One JSON object per line, in recording order.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& GlobalTracer();

// RAII span. The parent is the innermost Span open on this thread; a
// root span starts a new request.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span early (idempotent); returns its duration.
  double End();

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  Span* outer_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  bool ended_ = false;
};

}  // namespace gzb

#endif  // GZBENCH_TRACE_H_
