#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace sebdb {
namespace e2e {
namespace {

thread_local uint64_t t_open_span = 0;

double Median(std::vector<double>* v) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t n = v->size();
  return n % 2 == 1 ? (*v)[n / 2] : ((*v)[n / 2 - 1] + (*v)[n / 2]) / 2;
}

}  // namespace

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(const char* name, int64_t start_us, int64_t end_us,
                        uint64_t parent, uint64_t request) {
  if (!Tracing(start_us)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{name, start_us, end_us, id, parent, request});
  return id;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child coverage: children of one parent run sequentially on its thread
  // (or are asynchronous requests that never nest), so their durations add.
  std::unordered_map<uint64_t, int64_t> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, std::vector<double>> total, self;
  for (const Span& s : spans_) {
    const double d = static_cast<double>(s.end_us - s.start_us);
    auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0 : static_cast<double>(it->second);
    total[s.name].push_back(d);
    self[s.name].push_back(std::max(0.0, d - covered));
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, durations] : total) {
    SpanSummary& summary = out[name];
    summary.count = static_cast<int64_t>(durations.size());
    summary.p50_us = Median(&durations);
    summary.self_p50_us = Median(&self[name]);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  const int64_t now = NowMicros();
  if (!tracer.Tracing(now)) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = t_open_span;
  span_.request = request;
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  span_.start_us = now;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_us = NowMicros();
  t_open_span = saved_parent_;
  Tracer& tracer = Tracer::Get();
  std::lock_guard<std::mutex> lock(tracer.mu_);
  tracer.spans_.push_back(span_);
}

}  // namespace e2e
}  // namespace sebdb
