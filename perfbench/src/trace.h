// The benchmark's span recorder. A fixed, preallocated in-memory buffer of
// spans (name, start, end, parent, request id); recording never allocates
// and is safe from several threads (one atomic slot claim per span).
// Spans are written out as CSV when the run ends.
//
// The traced run times the same input at each layer boundary in turn, one
// unloaded caller, and links each layer's span to the span of the layer
// above it for that input (`parent`). A layer's self time is its duration
// minus its children's: their sum, or their maximum when the parent ran
// them in parallel (segment fan-out).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  /// Children ran concurrently: self time subtracts their maximum.
  bool parallel_children = false;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span; returns its id (-1 when the buffer is full).
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1,
                bool parallel_children = false);
  void End(int64_t id);
  /// Links an already recorded span to its parent (for a parent layer
  /// timed after its children).
  void Adopt(int64_t child, int64_t parent);

  size_t size() const;
  const Span& span(size_t i) const { return spans_[i]; }

  /// Self time in microseconds of every span, by name, in record order.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;
  /// Durations in microseconds, by name.
  std::map<std::string, std::vector<double>> DurationsUs() const;

  /// Writes every span as CSV (id,name,request,parent,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

  /// Measured cost of one Begin/End pair in nanoseconds.
  static double CalibrateSpanNs();

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
};

/// Times call(first + r) for r in [0, parents.size()) back to back, one
/// span named `name` per call for request first + r, linked to parents[r];
/// returns the ids. Timing a layer in its own loop keeps it as warm as in
/// the loaded run.
template <typename Fn>
std::vector<int64_t> TimeLayer(SpanRecorder* rec, const char* name,
                               const std::vector<int64_t>& parents,
                               bool parallel_children, Fn&& call,
                               size_t first = 0) {
  std::vector<int64_t> ids(parents.size(), -1);
  for (size_t r = 0; r < parents.size(); ++r) {
    ids[r] = rec->Begin(name, first + r, parents[r], parallel_children);
    call(first + r);
    rec->End(ids[r]);
  }
  return ids;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
