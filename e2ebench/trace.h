// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a public layer (RPC, thin client, SQL, chain, store) in a
// span; spans of one request share its request id, and a span's parent is
// the span that was open on the same thread when it began. Nothing is
// written until the run ends. Spans that start before the tracer's start
// time are not recorded, so a run can price the tracing by comparing its
// untraced part with its traced part.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sebdb {
namespace e2e {

int64_t NowMicros();

struct Span {
  const char* name = "";
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// Per-name aggregate: how many spans, their median duration, and their
/// median self time (duration minus the part covered by child spans).
struct SpanSummary {
  int64_t count = 0;
  double p50_us = 0;
  double self_p50_us = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  /// Records spans that start at or after `from_us` (steady clock).
  void Enable(int64_t from_us) {
    from_us_ = from_us;
    enabled_ = true;
  }
  bool enabled() const { return enabled_; }
  /// Whether an operation starting at `t_us` is traced.
  bool Tracing(int64_t t_us) const { return enabled_ && t_us >= from_us_; }

  /// Records a finished span whose start and end were taken elsewhere (an
  /// asynchronous request ends on another thread). Returns its id.
  uint64_t Record(const char* name, int64_t start_us, int64_t end_us,
                  uint64_t parent, uint64_t request);

  std::map<std::string, SpanSummary> Summarize() const;
  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  friend class ScopedSpan;
  uint64_t NextId();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> from_us_{0};
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Span over a lexical scope on the current thread; nests under the
/// thread's open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

}  // namespace e2e
}  // namespace sebdb
