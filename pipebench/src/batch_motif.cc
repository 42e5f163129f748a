// batch_motif: closed-loop FindMotif (GTM, one thread) over a seeded
// corpus of GeoLife-like trajectories, one query at a time. DP-bound.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/distance_matrix.h"
#include "data/datasets.h"
#include "data/io.h"
#include "geo/metric.h"
#include "motif/motif.h"
#include "similarity/frechet.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace pipebench {
namespace {

using frechet_motif::DatasetKind;
using frechet_motif::DatasetOptions;
using frechet_motif::FindMotifOptions;
using frechet_motif::HaversineMetric;
using frechet_motif::Index;
using frechet_motif::MotifAlgorithm;
using frechet_motif::MotifResult;
using frechet_motif::MotifStats;
using frechet_motif::Trajectory;

// Per-query cost is heavy-tailed (p50 ~8 ms, p99 ~60 ms on a 4-core
// Xeon): a query whose trajectory repeats a route prunes hard, one
// without a repeat does not. A run therefore answers many distinct
// queries (a 30 s run answers about 2 000), so its aggregates
// do not depend on the few slow queries one seed happens to contain. At
// n = 600 the tail is heavier still: the mean of 100 queries moved by
// 50 % between seeds. Each query is generated just before it is
// answered, outside the timed call, so only one is resident and
// peak_rss_mb is the library's.
constexpr Index kLength = 360;
constexpr Index kXi = 30;
/// Set-up parses the CSV bytes of kSetupDocs queries of kSetupSeed
/// (about 0.1 s), kSetupRepeats times in a run; the median repeat is
/// setup_s. The set-up input does not depend on --seed, so setup_s
/// measures the parser alone.
constexpr int kSetupDocs = 256;
constexpr std::uint64_t kSetupSeed = 0;
constexpr int kSmokeSetupDocs = 16;
constexpr int kSetupRepeats = 21;
constexpr int kSmokeSetupRepeats = 3;
/// Tail percentile, fixed so that a faster commit, which answers more
/// queries, is not measured further out; a 10 s phase has ~80 beyond it.
constexpr double kTailPercentile = 90.0;
/// Queries whose GTM answer is re-derived with BTM by the gate.
constexpr int kBtmChecks = 32;

Trajectory MakeQuery(std::uint64_t seed, std::int64_t k) {
  DatasetOptions options;
  options.length = kLength;
  options.seed = seed * 1000003 + static_cast<std::uint64_t>(k);
  return ValueOrDie(
      frechet_motif::MakeDataset(DatasetKind::kGeoLifeLike, options),
      "MakeDataset");
}

std::string ToCsv(const Trajectory& t) {
  std::string out = "lat,lon,timestamp\n";
  char row[96];
  for (Index k = 0; k < t.size(); ++k) {
    std::snprintf(row, sizeof(row), "%.17g,%.17g,%.17g\n", t[k].x, t[k].y,
                  t.timestamp(k));
    out += row;
  }
  return out;
}

FindMotifOptions QueryOptions(MotifAlgorithm algorithm) {
  FindMotifOptions options;
  options.algorithm = algorithm;
  options.min_length_xi = kXi;
  options.threads = 1;
  return options;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameAnswer(const MotifResult& a, const MotifResult& b) {
  return a.found == b.found && a.best == b.best &&
         SameBits(a.distance, b.distance);
}

struct Phase {
  double setup_s = 0.0;
  double csv_parse_s = 0.0;  // the median set-up repeat, summed per doc
  std::vector<MotifResult> answers;  // answers[k]: query k's
  std::vector<double> latencies_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t points = 0;  // Σn over the answered queries
  double busy_s = 0.0;      // Σ FindMotif wall time
  double points_per_s = 0.0;
  double matrix_build_s = 0.0;
  MotifStats totals;
};

Phase RunPhase(const Config& config, const std::vector<std::string>& corpus,
               Tracer* tracer) {
  Phase phase;
  const HaversineMetric metric;

  // Set-up: parse the set-up corpus from its CSV bytes. It runs once
  // before the first query and then at even intervals of the loop, so
  // that its median samples the host over the whole run, as the loop's
  // figures do. Each repeat starts from an empty vector so all of them
  // allocate alike.
  std::vector<double> totals;
  std::vector<double> parses;
  const int repeats = config.smoke ? kSmokeSetupRepeats : kSetupRepeats;
  auto set_up = [&] {
    ScopedSpan setup(tracer, "setup",
                     static_cast<std::int64_t>(totals.size()));
    std::vector<Trajectory> parsed;
    parsed.reserve(corpus.size());
    double parse_s = 0.0;
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      ScopedSpan parse(tracer, "data.ReadCsvFromString",
                       static_cast<std::int64_t>(k), setup.index());
      parsed.push_back(ValueOrDie(
          frechet_motif::ReadCsvFromString(corpus[k]), "ReadCsvFromString"));
      parse_s += parse.Stop();
    }
    totals.push_back(setup.Stop());
    parses.push_back(parse_s);
  };
  set_up();

  // Closed loop over queries 0, 1, 2, ... until the time is spent. The
  // queries are independent draws, so stopping anywhere biases nothing.
  const FindMotifOptions options = QueryOptions(MotifAlgorithm::kGtm);
  const Clock::time_point start = Clock::now();
  for (std::int64_t k = 0; SecondsBetween(start, Clock::now()) < config.seconds;
       ++k) {
    if (static_cast<int>(totals.size()) < repeats &&
        SecondsBetween(start, Clock::now()) >=
            config.seconds * static_cast<double>(totals.size()) / repeats) {
      set_up();
    }
    const Trajectory query = MakeQuery(config.seed, k);
    if (tracer != nullptr) {
      ScopedSpan build(tracer, "core.DistanceMatrix::Build", k);
      ValueOrDie(frechet_motif::DistanceMatrix::Build(query, metric),
                 "DistanceMatrix::Build");
      phase.matrix_build_s += build.Stop();
    }
    MotifStats stats;
    ScopedSpan call(tracer, "motif.FindMotif", k);
    frechet_motif::StatusOr<MotifResult> answer =
        frechet_motif::FindMotif(query, metric, options, &stats);
    const double seconds = call.Stop();
    if (tracer != nullptr) {
      tracer->Add("motif.precompute", tracer->ToTracerTime(call.start()),
                  tracer->ToTracerTime(call.start()) + stats.precompute_seconds,
                  k, call.index());
      tracer->Add("motif.search",
                  tracer->ToTracerTime(call.end()) - stats.search_seconds,
                  tracer->ToTracerTime(call.end()), k, call.index());
    }
    ++phase.attempted;
    if (!answer.ok()) {
      ++phase.failed;
      phase.answers.emplace_back();  // not found: fails the gate
      continue;
    }
    phase.busy_s += seconds;
    phase.points += query.size();
    phase.latencies_ms.push_back(seconds * 1e3);
    phase.totals.total_subsets += stats.total_subsets;
    phase.totals.subsets_evaluated += stats.subsets_evaluated;
    phase.totals.dfd_cells_computed += stats.dfd_cells_computed;
    phase.totals.gub_tightenings += stats.gub_tightenings;
    phase.totals.precompute_seconds += stats.precompute_seconds;
    phase.totals.search_seconds += stats.search_seconds;
    phase.answers.push_back(answer.value());
  }
  phase.points_per_s = static_cast<double>(phase.points) / phase.busy_s;
  phase.setup_s = Median(totals);
  phase.csv_parse_s = Median(parses);
  return phase;
}

/// The gates: every reported distance is the DFD of its reported pair,
/// bit for bit, and GTM answers exactly as BTM does.
void CheckAnswers(const Config& config, Phase* phase, Result* result) {
  if (phase->failed > 0 || phase->answers.empty()) {
    result->FailGate("batch_motif: a query failed");
    return;
  }
  if (config.fault == Fault::kFlipDistanceBit) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &phase->answers[0].distance, sizeof(bits));
    bits ^= 1;
    std::memcpy(&phase->answers[0].distance, &bits, sizeof(bits));
  }
  const HaversineMetric metric;
  for (std::size_t k = 0; k < phase->answers.size(); ++k) {
    const Trajectory q =
        MakeQuery(config.seed, static_cast<std::int64_t>(k));
    const MotifResult& a = phase->answers[k];
    const double dfd = ValueOrDie(
        frechet_motif::DiscreteFrechet(q.Slice(a.best.i, a.best.ie),
                                       q.Slice(a.best.j, a.best.je), metric),
        "DiscreteFrechet");
    if (!a.found || !SameBits(dfd, a.distance)) {
      result->FailGate("batch_motif: query " + std::to_string(k) +
                       " reported a distance that is not its pair's DFD");
    }
  }
  // BTM costs several GTM queries, so it re-derives a seeded sample, on
  // every core (answers are bit-identical for any thread count).
  frechet_motif::Rng rng(config.seed);
  FindMotifOptions btm_options = QueryOptions(MotifAlgorithm::kBtm);
  btm_options.threads = 0;
  for (int c = 0; c < kBtmChecks; ++c) {
    const std::size_t k = rng.NextUint64(phase->answers.size());
    const MotifResult btm = ValueOrDie(
        frechet_motif::FindMotif(
            MakeQuery(config.seed, static_cast<std::int64_t>(k)), metric,
            btm_options),
        "FindMotif(BTM)");
    if (!SameAnswer(btm, phase->answers[k])) {
      result->FailGate("batch_motif: query " + std::to_string(k) +
                       " GTM answer differs from BTM");
    }
  }
}

}  // namespace

void RunBatchMotif(const Config& config, Result* result) {
  std::vector<std::string> corpus;
  const int docs = config.smoke ? kSmokeSetupDocs : kSetupDocs;
  for (int k = 0; k < docs; ++k) {
    corpus.push_back(ToCsv(MakeQuery(kSetupSeed, k)));
  }

  const double baseline_mb = RssMb();
  Phase phase = RunPhase(config, corpus, nullptr);
  const double rss = PeakRssMb() - baseline_mb;
  CheckAnswers(config, &phase, result);
  result->AddAttempted(phase.attempted);
  result->AddFailed(phase.failed);

  if (!config.trace) {
    const TailLatency tail = Tail(phase.latencies_ms, kTailPercentile);
    const TailLatency ping =
        Tail(ModeledPingWaitsMs(phase.latencies_ms, 10.0), kTailPercentile);
    result->Set("points_per_s", phase.points_per_s, "points/s");
    result->Set("report_latency_p50_ms", Median(phase.latencies_ms), "ms");
    result->Set("report_latency_tail_ms", tail.value, "ms");
    result->Set("ping_latency_tail_ms", ping.value, "ms");
    result->Set("peak_rss_mb", rss, "MiB");
    result->Set("setup_s", phase.setup_s, "s");
    result->Note(DescribeTail("report_latency_tail_ms", tail));
    result->Note(DescribeTail("ping_latency_tail_ms (modeled)", ping));
    return;
  }

  Tracer tracer;
  Phase traced = RunPhase(config, corpus, &tracer);
  CheckAnswers(config, &traced, result);
  result->AddAttempted(traced.attempted);
  result->AddFailed(traced.failed);
  WriteTrace(config, tracer);

  const MotifStats& s = traced.totals;
  result->Set("data.csv_parse_s", traced.csv_parse_s, "s");
  result->Set("motif.precompute_s", s.precompute_seconds, "s");
  result->Set("motif.search_s", s.search_seconds, "s");
  result->Set("motif.dfd_cells", static_cast<double>(s.dfd_cells_computed),
              "count");
  result->Set("motif.ns_per_dfd_cell",
              s.dfd_cells_computed > 0
                  ? s.search_seconds * 1e9 /
                        static_cast<double>(s.dfd_cells_computed)
                  : 0.0,
              "ns");
  result->Set("motif.subsets_total", static_cast<double>(s.total_subsets),
              "count");
  result->Set("motif.subsets_evaluated",
              static_cast<double>(s.subsets_evaluated), "count");
  result->Set("motif.evaluated_frac",
              s.total_subsets > 0 ? static_cast<double>(s.subsets_evaluated) /
                                        static_cast<double>(s.total_subsets)
                                  : 0.0,
              "ratio");
  result->Set("motif.gub_tightenings", static_cast<double>(s.gub_tightenings),
              "count");
  result->Set("core.distance_matrix_build_s", traced.matrix_build_s, "s");
  result->Set("trace.overhead_points_per_s",
              traced.points_per_s - phase.points_per_s, "points/s");
  result->Set("trace.overhead_latency_p50_ms",
              Median(traced.latencies_ms) - Median(phase.latencies_ms), "ms");
  char split[160];
  std::snprintf(split, sizeof(split),
                "split: FindMotif wall %.4f s = precompute %.4f + search "
                "%.4f (search %.1f%%)",
                traced.busy_s, s.precompute_seconds, s.search_seconds,
                traced.busy_s > 0 ? 100.0 * s.search_seconds / traced.busy_s
                                  : 0.0);
  result->Note(split);
  FillUnmeasuredLayers(result);
}

}  // namespace pipebench
