#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>

namespace apfbench {
namespace {

/// Small stable per-thread id for the trace's tid column.
int this_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(const char* name, std::int64_t id,
                    std::int64_t parent, std::int64_t req,
                    Clock::time_point start, Clock::time_point end) {
  const int tid = this_tid();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, req, tid, start, end});
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_)
    if (s.name == name) out.push_back(us_between(s.start, s.end) / 1e3);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    // Span names are the benchmark's own string literals: no escaping needed.
    std::fprintf(f.get(),
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"req\": %lld}}%s\n",
                 s.name, s.tid, us_between(origin_, s.start),
                 us_between(s.start, s.end), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.req),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f.get());
  return std::fflush(f.get()) == 0;
}

}  // namespace apfbench
