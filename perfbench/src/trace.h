// In-memory span recorder of the traced run. Spans are recorded from the
// benchmark's own files around calls into the program's public functions;
// nothing inside the program is instrumented. Each recording thread owns a
// SpanLog, so recording takes no lock; the logs are merged and written out
// only when the run ends.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tcfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share this
  double start = 0.0;
  double end = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(uint64_t log_index) : base_((log_index + 1) << 40) {}
  /// Opens a span now; Close(id) ends it.
  uint64_t Open(const char* name, uint64_t parent = 0, uint64_t request = 0);
  void Close(uint64_t id);
  /// Records an already-timed span.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               double start, double end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t base_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// A log for one recording thread. Thread-safe; the log lives as long
  /// as the tracer.
  SpanLog* NewLog();
  std::vector<Span> Collect() const;

 private:
  mutable std::mutex mutex_;
  std::deque<SpanLog> logs_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// when `log` is null, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : log_(log), id_(log ? log->Open(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals. A child outside its parent, or a self time below
/// zero or above the parent's duration, is counted as a violation.
struct SelfTimes {
  std::map<std::string, double> self_seconds;  // summed per span name
  std::map<std::string, size_t> count;         // spans per name
  size_t violations = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Writes `spans` as JSON: {"spans": [[name, id, parent, request, start,
/// end], ...]} with times in seconds.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace tcfbench
