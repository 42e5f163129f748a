#ifndef PIPEBENCH_COMMON_H_
#define PIPEBENCH_COMMON_H_

// Shared plumbing of the pipebench runner: run configuration, the result
// object every workload fills, latency summaries, and the fixed metric
// catalogue that BENCHMARK.json declares.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A fault planted into a workload's outputs just before its correctness
/// gate runs. Only the self-test sets one; it proves each gate fires.
enum class Fault {
  kNone,
  kFlipDistanceBit,  // batch_motif: one reported distance off by one ulp
  kWrongJoinDelta,   // fleet_join: one engine join delta gains a pair
  kDropFrame,        // serve_durable: one received report frame discarded
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks set-up repeats and inputs so all workloads finish in seconds.
  bool smoke = false;
  Fault fault = Fault::kNone;
  /// Directory for the files a run writes: serve_durable's state dirs
  /// and, on traced runs, the Chrome trace files (under traces/). The
  /// run removes the state dirs before it exits.
  std::string work_dir = "pipebench-work";
};

/// What one workload run reports. Metrics keep insertion order.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness gate; the run then reports correct=false.
  void FailGate(const std::string& what);
  /// Adds a human-readable line printed before the JSON result.
  void Note(const std::string& line) { notes_.push_back(line); }

  void AddAttempted(std::int64_t n) { attempted_ += n; }
  void AddFailed(std::int64_t n) { failed_ += n; }

  bool correct() const { return gate_failures_.empty(); }
  const std::vector<std::string>& gate_failures() const {
    return gate_failures_;
  }
  const std::vector<std::string>& notes() const { return notes_; }
  bool Has(const std::string& name) const;

  /// The single-line JSON object that ends the run's output.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> gate_failures_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Name and unit of every metric the benchmark declares.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// The highest percentile of {90, 99, 99.9, 99.99}, up to
/// `max_percentile`, that leaves at least ten samples beyond it, by
/// nearest rank. Workloads cap it at a fixed percentile that their runs
/// reach, so it does not move with the sample count.
struct TailLatency {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
TailLatency Tail(std::vector<double> values, double max_percentile = 99.99);
std::string DescribeTail(const std::string& metric, const TailLatency& tail);

/// Waits (ms) a PING would see on a single-threaded poll loop that runs
/// calls of the given durations (ms) back to back: a probe due every
/// `period_ms` is
/// answered when the call in flight at its due time returns. Used by the
/// closed-loop workloads, whose calls would run on the serve poll thread
/// if they were served.
std::vector<double> ModeledPingWaitsMs(const std::vector<double>& call_ms,
                                       double period_ms);

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();
/// Resident set of this process now (VmRSS), in MiB. Workloads read it
/// once their inputs are built and report peak_rss_mb as PeakRssMb()
/// minus it: the memory the library added on top of the inputs.
double RssMb();

/// Aborts the run with a message on a library error. Set-up failures are
/// not measurements; the caller sees a non-zero exit and no result.
void CheckOk(const frechet_motif::Status& status, const char* where);

template <typename T>
T ValueOrDie(frechet_motif::StatusOr<T> value, const char* where) {
  CheckOk(value.status(), where);
  return std::move(value).value();
}

}  // namespace pipebench

#endif  // PIPEBENCH_COMMON_H_
