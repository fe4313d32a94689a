#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

SpanRecorder::SpanRecorder(size_t capacity) : spans_(capacity) {}

int64_t SpanRecorder::Begin(const char* name, uint64_t request,
                            int64_t parent, bool parallel_children) {
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) return -1;
  Span& s = spans_[i];
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.parallel_children = parallel_children;
  s.start_ns = NowNs();
  return static_cast<int64_t>(i);
}

void SpanRecorder::End(int64_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void SpanRecorder::Adopt(int64_t child, int64_t parent) {
  if (child >= 0) spans_[static_cast<size_t>(child)].parent = parent;
}

size_t SpanRecorder::size() const {
  return std::min(next_.load(), spans_.size());
}

std::map<std::string, std::vector<double>> SpanRecorder::DurationsUs() const {
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanRecorder::SelfTimesUs() const {
  const size_t n = size();
  std::vector<double> child_sum(n, 0), child_max(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= n) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    child_sum[s.parent] += d;
    child_max[s.parent] = std::max(child_max[s.parent], d);
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    out[s.name].push_back(d -
                          (s.parallel_children ? child_max[i] : child_sum[i]));
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,request,parent,start_ns,end_ns\n");
  for (size_t i = 0; i < size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%llu,%lld,%llu,%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double SpanRecorder::CalibrateSpanNs() {
  constexpr size_t kSpans = 200000;
  SpanRecorder rec(kSpans);
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kSpans; ++i) {
    rec.End(rec.Begin("calibrate", i));
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

}  // namespace perfbench
