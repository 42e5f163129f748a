#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace pipebench {

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::FailGate(const std::string& what) {
  gate_failures_.push_back(what);
}

bool Result::Has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<std::int64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics_.size(); ++k) {
    if (k > 0) out += ", ";
    out += Quote(metrics_[k].name) + ": {\"value\": " +
           FormatNumber(metrics_[k].value) +
           ", \"unit\": " + Quote(metrics_[k].unit) + "}";
  }
  out += "}}";
  return out;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"points_per_s", "points/s"},
      {"report_latency_p50_ms", "ms"},
      {"report_latency_tail_ms", "ms"},
      {"ping_latency_tail_ms", "ms"},
      {"peak_rss_mb", "MiB"},
      {"setup_s", "s"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"data.csv_parse_s", "s"},
      {"motif.precompute_s", "s"},
      {"motif.search_s", "s"},
      {"motif.dfd_cells", "count"},
      {"motif.ns_per_dfd_cell", "ns"},
      {"motif.subsets_total", "count"},
      {"motif.subsets_evaluated", "count"},
      {"motif.evaluated_frac", "ratio"},
      {"motif.gub_tightenings", "count"},
      {"core.distance_matrix_build_s", "s"},
      {"stream.ingest_s", "s"},
      {"stream.precompute_s", "s"},
      {"stream.search_s", "s"},
      {"stream.other_s", "s"},
      {"stream.cold_search_s", "s"},
      {"stream.reports", "count"},
      {"stream.dfd_cells_per_report", "count"},
      {"stream.evaluated_frac", "ratio"},
      {"stream.seeded_frac", "ratio"},
      {"stream.carried_frac", "ratio"},
      {"stream.bound_rescans", "count"},
      {"join.tick_s", "s"},
      {"join.pairs_reverified", "count"},
      {"join.decided_exact", "count"},
      {"join.matched_frac", "ratio"},
      {"join.entered", "count"},
      {"join.left", "count"},
      {"serve.read_calls", "count"},
      {"serve.bytes_in", "bytes"},
      {"serve.read_s", "s"},
      {"serve.write_calls", "count"},
      {"serve.bytes_out", "bytes"},
      {"serve.write_s", "s"},
      {"serve.write_would_block", "count"},
      {"serve.residence_p50_ms", "ms"},
      {"serve.residence_tail_ms", "ms"},
      {"serve.frames_pushed", "count"},
      {"serve.frames_dropped", "count"},
      {"serve.offered_points_per_s", "points/s"},
      {"serve.generator_late_tail_ms", "ms"},
      {"durable.journal_appends", "count"},
      {"durable.journal_bytes", "bytes"},
      {"durable.journal_append_s", "s"},
      {"durable.syncs", "count"},
      {"durable.sync_s", "s"},
      {"durable.checkpoints", "count"},
      {"durable.checkpoint_bytes", "bytes"},
      {"durable.checkpoint_s", "s"},
      {"durable.recover_read_bytes", "bytes"},
      {"durable.recover_read_s", "s"},
      {"durable.replayed_records", "count"},
      {"trace.overhead_points_per_s", "points/s"},
      {"trace.overhead_latency_p50_ms", "ms"},
  };
  return kSpecs;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailLatency Tail(std::vector<double> values, double max_percentile) {
  TailLatency tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    if (p > max_percentile) break;
    // Nearest rank: the value at ceil(p/100 * n), one-based.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t beyond = values.size() - rank;
    if (rank == 0 || beyond < 10) break;
    tail.value = values[rank - 1];
    tail.percentile = p;
    tail.beyond = beyond;
  }
  if (tail.percentile == 0.0) {
    // Fewer than 100 samples: report the maximum and say so.
    tail.value = values.back();
    tail.percentile = 100.0;
  }
  return tail;
}

std::string DescribeTail(const std::string& metric, const TailLatency& tail) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s = p%g of %zu samples (%zu beyond)",
                metric.c_str(), tail.percentile, tail.samples, tail.beyond);
  return buf;
}

std::vector<double> ModeledPingWaitsMs(const std::vector<double>& call_ms,
                                       double period_ms) {
  std::vector<double> waits;
  double call_end = 0.0;
  double due = 0.0;
  for (double d : call_ms) {
    call_end += d;
    // Every probe due while this call runs is answered when it returns.
    for (; due < call_end; due += period_ms) {
      waits.push_back(call_end - due);
    }
  }
  return waits;
}

namespace {

/// A "<key>: <n> kB" line of /proc/self/status, in MiB.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM"); }

double RssMb() { return StatusMb("VmRSS"); }

void CheckOk(const frechet_motif::Status& status, const char* where) {
  if (status.ok()) return;
  std::fprintf(stderr, "pipebench: %s: %s\n", where,
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace pipebench
