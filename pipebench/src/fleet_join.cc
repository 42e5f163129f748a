// fleet_join: closed-loop MotifFleetEngine::Ingest over 64 streams that
// travel in 16 convoys of 4, with the fleet's incremental DFD ε-join on.
// Each Ingest carries one point per stream. Bound by engine overhead
// (bound maintenance, subset search set-up, join, append), not DP.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "data/generator.h"
#include "geo/metric.h"
#include "join/incremental_join.h"
#include "join/similarity_join.h"
#include "motif/motif.h"
#include "stream/motif_fleet_engine.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace pipebench {
namespace {

using frechet_motif::FleetArrival;
using frechet_motif::FleetOptions;
using frechet_motif::FleetReport;
using frechet_motif::HaversineMetric;
using frechet_motif::IncrementalDfdJoin;
using frechet_motif::IncrementalJoinStats;
using frechet_motif::Index;
using frechet_motif::JoinDelta;
using frechet_motif::JoinPair;
using frechet_motif::MotifFleetEngine;
using frechet_motif::MotifResult;
using frechet_motif::Point;
using frechet_motif::Rng;
using frechet_motif::Trajectory;

constexpr int kConvoys = 16;
constexpr int kMembers = 4;
constexpr int kStreams = kConvoys * kMembers;
constexpr Index kWindow = 128;
constexpr Index kSlide = 8;
constexpr Index kXi = 16;
constexpr double kJoinEpsilonM = 50.0;
/// One search lane. At threads=2 the pool's per-call hand-offs made
/// throughput swing by 10 % between runs of one seed on a shared VM;
/// at threads=1 it stayed within 4 %.
constexpr int kThreads = 1;
/// Points per route of a convoy (about 2.8 km at walking pace).
constexpr Index kBlockTicks = 400;
/// Stream s starts s % kSlide ticks late, so every tick has searches.
constexpr Index kPrefillTicks = kWindow + kSlide - 1;
/// Set-up repeats, all on the streams of kSetupSeed: one repeat takes
/// about 0.12 s on a 4-core Xeon, and the median of many is what makes
/// setup_s repeat within a tenth.
constexpr int kSetupRepeats = 25;
constexpr std::uint64_t kSetupSeed = 0;
/// Tail percentiles, fixed so that a faster commit is not measured
/// further out. Every call yields 8 reports; a 10 s phase makes ~2 000
/// calls, so ~20 calls lie beyond p99. The modeled PING waits (one per
/// 10 ms of Ingest) are too few for p99.
constexpr double kTailPercentile = 99.0;
constexpr double kPingTailPercentile = 90.0;
constexpr int kSmokeSetupRepeats = 3;
/// Reports whose window the gate re-derives with FindMotif.
constexpr int kMotifChecks = 24;

FleetOptions Options() {
  FleetOptions options;
  options.stream.window_length = kWindow;
  options.stream.slide_step = kSlide;
  options.stream.min_length_xi = kXi;
  options.stream.threads = kThreads;
  options.join_epsilon = kJoinEpsilonM;
  return options;
}

/// The 64 streams of one seed. Each convoy starts from its own origin,
/// 3 km or more from the others. Every kBlockTicks points it draws a new
/// random route, and its members walk it from the origin, each with its
/// own walk noise and pace: the convoy gathers, spreads and gathers again
/// on the next route. A run thus averages over many routes, and its rates
/// depend neither on its length nor much on the seed. Blocks are made as
/// the run reaches them and points are dropped once sent, so the inputs
/// resident at any time are about one block per stream.
class Streams {
 public:
  explicit Streams(std::uint64_t seed)
      : route_rng_(seed * 7919 + 17), points_(kStreams), first_(kStreams, 0) {
    params_.mean_speed_mps = 1.4;
    params_.speed_jitter = 0.3;
    params_.turn_stddev_rad = 0.2;
    params_.base_period_s = 5.0;
    params_.period_jitter = 0.4;
    params_.gps_noise_m = 4.0;
    for (int s = 0; s < kStreams; ++s) {
      rngs_.emplace_back(seed * 1000003 + static_cast<std::uint64_t>(s));
    }
  }

  /// The batch of tick t: the next point of every stream that has
  /// started (stream s starts s % kSlide ticks late). Ticks must be
  /// asked for in increasing order.
  std::vector<FleetArrival> Batch(Index tick) {
    std::vector<FleetArrival> batch;
    batch.reserve(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      const Index k = tick - s % kSlide;
      if (k < 0) continue;
      std::deque<Point>& points = points_[s];
      while (first_[s] + static_cast<Index>(points.size()) <= k) AddBlock();
      for (; first_[s] < k; ++first_[s]) points.pop_front();
      batch.push_back(FleetArrival{static_cast<std::size_t>(s),
                                   points.front(), false, 0.0});
    }
    return batch;
  }

 private:
  void AddBlock() {
    for (int c = 0; c < kConvoys; ++c) {
      params_.origin = frechet_motif::LatLon(39.90 + 0.03 * (c / 4),
                                             116.40 + 0.04 * (c % 4));
      const frechet_motif::Route route =
          frechet_motif::MakeRandomRoute(16, 400.0, 0.0, &route_rng_);
      // Convoys change routes at staggered points, so the streams do not
      // all jump back to their origins in the same call.
      const Index end =
          (block_ + 1) * kBlockTicks - c * (kBlockTicks / kConvoys);
      for (int s = c * kMembers; s < (c + 1) * kMembers; ++s) {
        std::deque<Point>& points = points_[s];
        while (first_[s] + static_cast<Index>(points.size()) < end) {
          const Trajectory leg = ValueOrDie(
              frechet_motif::FollowRoute(
                  params_, route, 15.0,
                  end - first_[s] - static_cast<Index>(points.size()), 0.0,
                  &rngs_[s]),
              "FollowRoute");
          points.insert(points.end(), leg.points().begin(),
                        leg.points().end());
        }
      }
    }
    ++block_;
  }

  frechet_motif::WalkParams params_;
  Rng route_rng_;
  std::vector<Rng> rngs_;
  std::vector<std::deque<Point>> points_;
  std::vector<Index> first_;  // index of points_[s].front() in stream s
  Index block_ = 0;
};

bool SameDelta(const JoinDelta& a, const JoinDelta& b) {
  return a.entered == b.entered && a.left == b.left;
}

bool SameMotif(const MotifResult& a, const MotifResult& b) {
  return a.found == b.found && a.best == b.best &&
         std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0;
}

/// A report kept for the FindMotif gate, with the window it answered.
struct Sample {
  Trajectory window;
  MotifResult motif;
};

struct Phase {
  double setup_s = 0.0;
  double cold_search_s = 0.0;
  std::vector<double> report_latencies_ms;
  std::vector<double> ingest_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t points = 0;
  double ingest_s = 0.0;  // Σ Ingest wall time
  double points_per_s = 0.0;
  double precompute_s = 0.0;
  double search_s = 0.0;
  double join_tick_s = 0.0;
  std::int64_t reports = 0;
  std::int64_t seeded = 0;
  std::int64_t carried = 0;
  std::int64_t dfd_cells = 0;
  std::int64_t subsets_total = 0;
  std::int64_t subsets_evaluated = 0;
  std::int64_t bound_rescans = 0;
  IncrementalJoinStats join_before;
  IncrementalJoinStats join_after;
  std::int64_t delta_mismatches = 0;
  bool join_matches_scratch = false;
  std::vector<Sample> samples;
};

std::int64_t BoundRescans(const MotifFleetEngine& engine) {
  std::int64_t total = 0;
  for (std::size_t s = 0; s < engine.stream_count(); ++s) {
    total += engine.stream_stats(s).bound_rescans;
  }
  return total;
}

/// Refreshes the shadow join with every reporting stream's window and
/// ticks it; returns the shadow's delta. `windows` keeps each stream's
/// window as of its last report: the snapshots the engine's join holds.
JoinDelta ShadowTick(const MotifFleetEngine& engine, const FleetReport& report,
                     IncrementalDfdJoin* shadow,
                     std::vector<Trajectory>* windows) {
  for (const auto& u : report.updates) {
    (*windows)[u.stream] = engine.WindowTrajectory(u.stream);
    CheckOk(shadow->Update(u.stream, (*windows)[u.stream]),
            "IncrementalDfdJoin::Update");
  }
  return ValueOrDie(shadow->Tick(), "IncrementalDfdJoin::Tick");
}

/// Set-up, repeated: Create, AddStream x64, and the prefill that runs
/// every stream's cold search, on the fixed streams of kSetupSeed, so
/// that setup_s does not depend on --seed. Sets the median repeat's
/// set-up time and cold-search time.
void MeasureSetup(const Config& config, Tracer* tracer, Phase* phase) {
  const HaversineMetric metric;
  const FleetOptions options = Options();
  Streams streams(kSetupSeed);
  std::vector<std::vector<FleetArrival>> prefill;
  for (Index t = 0; t < kPrefillTicks; ++t) prefill.push_back(streams.Batch(t));

  std::vector<std::pair<double, double>> setups;  // (set-up, cold search)
  const int repeats = config.smoke ? kSmokeSetupRepeats : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    ScopedSpan setup(tracer, "setup", r);
    Clock::time_point t0 = Clock::now();
    MotifFleetEngine engine = ValueOrDie(
        MotifFleetEngine::Create(options, metric), "MotifFleetEngine::Create");
    for (int s = 0; s < kStreams; ++s) {
      ValueOrDie(engine.AddStream(), "AddStream");
    }
    double timed = SecondsBetween(t0, Clock::now());
    double cold = 0.0;
    for (const std::vector<FleetArrival>& batch : prefill) {
      t0 = Clock::now();
      const FleetReport report = ValueOrDie(engine.Ingest(batch), "Ingest");
      timed += SecondsBetween(t0, Clock::now());
      for (const auto& u : report.updates) {
        cold += u.update.stats.precompute_seconds +
                u.update.stats.search_seconds;
      }
    }
    setup.Stop();
    setups.emplace_back(timed, cold);
  }
  std::sort(setups.begin(), setups.end());
  phase->setup_s = setups[setups.size() / 2].first;
  phase->cold_search_s = setups[setups.size() / 2].second;
}

Phase RunPhase(const Config& config, Tracer* tracer) {
  Phase phase;
  const HaversineMetric metric;
  const FleetOptions options = Options();
  MeasureSetup(config, tracer, &phase);

  // The measured engine, with its shadow join, prefilled (untimed) on
  // the seed's streams.
  Streams streams(config.seed);
  MotifFleetEngine engine = ValueOrDie(
      MotifFleetEngine::Create(options, metric), "MotifFleetEngine::Create");
  for (int s = 0; s < kStreams; ++s) {
    ValueOrDie(engine.AddStream(), "AddStream");
  }
  IncrementalDfdJoin shadow = ValueOrDie(
      IncrementalDfdJoin::Create(options.JoinConfig(), metric),
      "IncrementalDfdJoin::Create");
  std::vector<Trajectory> windows(kStreams);
  for (Index t = 0; t < kPrefillTicks; ++t) {
    const FleetReport report =
        ValueOrDie(engine.Ingest(streams.Batch(t)), "Ingest");
    if (!report.updates.empty()) {
      ShadowTick(engine, report, &shadow, &windows);
    }
  }

  Rng sample_rng(config.seed ^ 0x5eed);
  phase.join_before = *engine.join_stats();
  const std::int64_t rescans_before = BoundRescans(engine);
  const Clock::time_point start = Clock::now();
  for (Index t = kPrefillTicks;
       SecondsBetween(start, Clock::now()) < config.seconds; ++t) {
    const std::vector<FleetArrival> batch = streams.Batch(t);
    ScopedSpan call(tracer, "fleet.Ingest", t);
    frechet_motif::StatusOr<FleetReport> result = engine.Ingest(batch);
    const double seconds = call.Stop();
    ++phase.attempted;
    if (!result.ok()) {
      ++phase.failed;
      continue;
    }
    FleetReport& report = result.value();
    phase.ingest_s += seconds;
    phase.points += static_cast<std::int64_t>(batch.size());
    phase.ingest_ms.push_back(seconds * 1e3);
    double at = tracer != nullptr ? tracer->ToTracerTime(call.start()) : 0.0;
    for (const auto& u : report.updates) {
      const frechet_motif::MotifStats& st = u.update.stats;
      phase.report_latencies_ms.push_back(seconds * 1e3);
      ++phase.reports;
      phase.seeded += u.update.seeded ? 1 : 0;
      phase.carried += u.update.carried ? 1 : 0;
      phase.precompute_s += st.precompute_seconds;
      phase.search_s += st.search_seconds;
      phase.dfd_cells += st.dfd_cells_computed;
      phase.subsets_total += st.total_subsets;
      phase.subsets_evaluated += st.subsets_evaluated;
      if (tracer != nullptr) {
        // The call's searches, laid end to end from its start: the
        // engine reports their durations, not when they ran.
        const double d = st.precompute_seconds + st.search_seconds;
        tracer->Add("stream.search", at, at + d, t, call.index());
        at += d;
      }
      // The first report, then about one in 64, up to kMotifChecks.
      if (phase.samples.empty() ||
          (static_cast<int>(phase.samples.size()) < kMotifChecks &&
           sample_rng.NextUint64(64) == 0)) {
        phase.samples.push_back(
            Sample{engine.WindowTrajectory(u.stream), u.update.motif});
      }
    }
    if (report.updates.empty()) continue;
    // Outside the timed call: the shadow join, whose delta must match.
    ScopedSpan join(tracer, "join.shadow_tick", t);
    const JoinDelta delta = ShadowTick(engine, report, &shadow, &windows);
    phase.join_tick_s += join.Stop();
    if (config.fault == Fault::kWrongJoinDelta && t == kPrefillTicks) {
      report.join_delta.entered.push_back(JoinPair{kStreams, kStreams + 1});
    }
    if (!SameDelta(delta, report.join_delta)) ++phase.delta_mismatches;
  }
  phase.points_per_s = static_cast<double>(phase.points) / phase.ingest_s;
  phase.join_after = *engine.join_stats();
  phase.bound_rescans = BoundRescans(engine) - rescans_before;

  // Gate: the accumulated join equals a from-scratch self-join over the
  // windows it last saw.
  const std::vector<JoinPair> scratch = ValueOrDie(
      frechet_motif::DfdSelfJoin(windows, metric, options.JoinConfig()),
      "DfdSelfJoin");
  phase.join_matches_scratch = scratch == engine.CurrentJoinMatches();
  return phase;
}

void CheckPhase(const Phase& phase, Result* result) {
  if (phase.delta_mismatches > 0) {
    result->FailGate("fleet_join: " + std::to_string(phase.delta_mismatches) +
                     " engine join deltas differ from the shadow join's");
  }
  if (!phase.join_matches_scratch) {
    result->FailGate(
        "fleet_join: the engine's join differs from a from-scratch "
        "DfdSelfJoin");
  }
  if (phase.samples.empty() || phase.reports == 0) {
    result->FailGate("fleet_join: no reports to check");
  }
  const HaversineMetric metric;
  const frechet_motif::FindMotifOptions baseline =
      Options().stream.BaselineOptions();
  for (const Sample& s : phase.samples) {
    const MotifResult scratch = ValueOrDie(
        frechet_motif::FindMotif(s.window, metric, baseline), "FindMotif");
    if (!SameMotif(scratch, s.motif)) {
      result->FailGate("fleet_join: a report differs from FindMotif on its "
                       "window");
    }
  }
  result->AddAttempted(phase.attempted);
  result->AddFailed(phase.failed);
}

double Ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

void RunFleetJoin(const Config& config, Result* result) {
  const double baseline_mb = RssMb();
  Phase phase = RunPhase(config, nullptr);
  const double rss = PeakRssMb() - baseline_mb;
  CheckPhase(phase, result);

  if (!config.trace) {
    const TailLatency tail = Tail(phase.report_latencies_ms, kTailPercentile);
    const TailLatency ping =
        Tail(ModeledPingWaitsMs(phase.ingest_ms, 10.0), kPingTailPercentile);
    result->Set("points_per_s", phase.points_per_s, "points/s");
    result->Set("report_latency_p50_ms", Median(phase.report_latencies_ms),
                "ms");
    result->Set("report_latency_tail_ms", tail.value, "ms");
    result->Set("ping_latency_tail_ms", ping.value, "ms");
    result->Set("peak_rss_mb", rss, "MiB");
    result->Set("setup_s", phase.setup_s, "s");
    result->Note(DescribeTail("report_latency_tail_ms", tail));
    result->Note(DescribeTail("ping_latency_tail_ms (modeled)", ping));
    return;
  }

  Tracer tracer;
  const Phase traced = RunPhase(config, &tracer);
  CheckPhase(traced, result);
  WriteTrace(config, tracer);

  const IncrementalJoinStats& a = traced.join_before;
  const IncrementalJoinStats& b = traced.join_after;
  const std::int64_t reverified = b.pairs_reverified - a.pairs_reverified;
  result->Set("stream.ingest_s", traced.ingest_s, "s");
  result->Set("stream.precompute_s", traced.precompute_s, "s");
  result->Set("stream.search_s", traced.search_s, "s");
  result->Set("stream.other_s",
              traced.ingest_s - traced.precompute_s - traced.search_s -
                  traced.join_tick_s,
              "s");
  result->Set("stream.cold_search_s", traced.cold_search_s, "s");
  result->Set("stream.reports", static_cast<double>(traced.reports), "count");
  result->Set("stream.dfd_cells_per_report",
              Ratio(traced.dfd_cells, traced.reports), "count");
  result->Set("stream.evaluated_frac",
              Ratio(traced.subsets_evaluated, traced.subsets_total), "ratio");
  result->Set("stream.seeded_frac", Ratio(traced.seeded, traced.reports),
              "ratio");
  result->Set("stream.carried_frac", Ratio(traced.carried, traced.reports),
              "ratio");
  result->Set("stream.bound_rescans",
              static_cast<double>(traced.bound_rescans), "count");
  result->Set("join.tick_s", traced.join_tick_s, "s");
  result->Set("join.pairs_reverified", static_cast<double>(reverified),
              "count");
  result->Set("join.decided_exact",
              static_cast<double>(b.cascade.decided_exact -
                                  a.cascade.decided_exact),
              "count");
  result->Set("join.matched_frac",
              Ratio(b.cascade.matched - a.cascade.matched, reverified),
              "ratio");
  result->Set("join.entered",
              static_cast<double>(b.entered_total - a.entered_total), "count");
  result->Set("join.left", static_cast<double>(b.left_total - a.left_total),
              "count");
  result->Set("trace.overhead_points_per_s",
              traced.points_per_s - phase.points_per_s, "points/s");
  result->Set("trace.overhead_latency_p50_ms",
              Median(traced.report_latencies_ms) -
                  Median(phase.report_latencies_ms),
              "ms");
  char split[200];
  std::snprintf(split, sizeof(split),
                "split: Ingest %.4f s = precompute %.1f%% + search %.1f%% + "
                "join (shadow) %.1f%% + other %.1f%%",
                traced.ingest_s, 100 * traced.precompute_s / traced.ingest_s,
                100 * traced.search_s / traced.ingest_s,
                100 * traced.join_tick_s / traced.ingest_s,
                100 * (traced.ingest_s - traced.precompute_s -
                       traced.search_s - traced.join_tick_s) /
                    traced.ingest_s);
  result->Note(split);
  FillUnmeasuredLayers(result);
}

}  // namespace pipebench
