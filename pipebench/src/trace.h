#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

// In-memory span recorder of the traced runs. Spans are recorded by the
// benchmark around its calls into each layer (and, for the serve and
// durable seams, by the timing decorators), kept in memory, and written
// out once at exit as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace pipebench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the tracer's origin
  double end_s = 0.0;
  /// Index of the parent span in the tracer, or -1 for a root.
  int parent = -1;
  /// Shared by every span of one query or report.
  std::int64_t id = 0;
  /// Lane in the trace viewer (0 = main thread, 1 = server thread).
  int tid = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double ToTracerTime(Clock::time_point t) const {
    return SecondsBetween(origin_, t);
  }

  /// Records a span; returns its index (usable as a parent).
  int Add(const std::string& name, double start_s, double end_s,
          std::int64_t id, int parent = -1, int tid = 0);
  void SetEnd(int index, double end_s) { spans_[index].end_s = end_s; }

  /// Writes the spans as Chrome trace-event JSON, with `metadata` pairs
  /// recorded as process arguments. Returns false on an I/O error.
  bool WriteChromeTrace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call and records it as a span when a tracer is present.
/// Without one it still measures, so the untraced run pays only two clock
/// reads per call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t id,
             int parent = -1);

  /// Ends the span and returns its duration in seconds.
  double Stop();
  /// Index of the recorded span (-1 without a tracer).
  int index() const { return index_; }
  Clock::time_point start() const { return start_; }
  Clock::time_point end() const { return end_; }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  Clock::time_point end_;
  int index_ = -1;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
