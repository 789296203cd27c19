#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a layer's public API. It
// carries a name, start and end, the span that caused it (parent) and the
// request or step it belongs to. Spans stay in memory until the run ends,
// then write_chrome() emits them as Chrome trace_event JSON (load the file
// in chrome://tracing or Perfetto).
//
// With a null Tracer every Span is a no-op, so the untraced run pays one
// branch per call site.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace apfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = nullptr;  ///< a string literal
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::int64_t req = -1;     ///< request / step / call id
  int tid = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t next_id();
  /// name must outlive the tracer (the benchmark passes string literals).
  void record(const char* name, std::int64_t id, std::int64_t parent,
              std::int64_t req, Clock::time_point start,
              Clock::time_point end);

  /// Durations in milliseconds of every span with this name, in record order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span,
  /// timestamps in microseconds since the tracer was made. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 0;          // guarded by mu_
  std::vector<SpanRecord> spans_;     // guarded by mu_
};

/// RAII span; records on destruction. No-op when tracer is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t req,
       std::int64_t parent = -1)
      : tracer_(tracer), name_(name), req_(req), parent_(parent) {
    if (tracer_) {
      id_ = tracer_->next_id();
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (tracer_) tracer_->record(name_, id_, parent_, req_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t req_;
  std::int64_t parent_;
  std::int64_t id_ = -1;
  Clock::time_point start_;
};

}  // namespace apfbench
