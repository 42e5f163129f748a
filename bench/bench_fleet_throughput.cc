// Self-timed throughput benchmark of the fleet streaming engine
// (src/stream/motif_fleet_engine.h) against N independent one-member
// fleets ("monitors") fed the identical points, in the same JSON
// pipeline as the other benches:
//
//   ./bench_fleet_throughput [--smoke] [--lengths=256] [--n=STREAMS]
//       [--xi=N] [--threads=N] [--json[=path]]
//
// For each window length W it synthesizes N (--n, default 8) GeoLife-like
// streams of 3W points and replays them three ways:
//
//   monitors         N independent one-member fleets, round-robin
//                    pushes — every stream searched on its own.
//   fleet_parity     MotifFleetEngine, unbudgeted: one arrival loop, one
//                    scheduler, one pool. Every per-stream report is
//                    asserted bit-identical to its monitor's (candidate,
//                    distance, flags); a mismatch aborts.
//   fleet_budgeted   MotifFleetEngine with max_searches_per_drain = N/2,
//                    ingesting one slide period per call: half the fleet
//                    defers each drain, so every window coalesces ~2
//                    pending slides per search.
//
// The acceptance signal lands on the fleet_search_budgeted kernel:
// dp_cells_ratio_vs_monitors — total DP cells the budgeted fleet spent
// over the identical ingest, divided by the monitors' total — must stay
// below 1.0 at N >= 8: coalesced searches answer for fewer intermediate
// windows, and each merged search costs far less than the slides it
// replaces. fleet_parity records ratio 1.0 by construction (same
// searches, shared loop) — its win is wall-clock, reported as
// points_per_sec.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/timer.h"

namespace frechet_motif {
namespace bench {
namespace {

struct FleetMeasurement {
  double monitors_seconds = 0.0;
  double parity_seconds = 0.0;
  double budgeted_seconds = 0.0;
  std::int64_t points = 0;
  std::int64_t monitor_slides = 0;
  std::int64_t monitor_cells = 0;
  std::int64_t parity_cells = 0;
  std::int64_t budgeted_slides = 0;
  std::int64_t budgeted_cells = 0;
  std::int64_t coalesced_slides = 0;
};

void Die(const Status& status, const char* where) {
  std::fprintf(stderr, "%s: %s\n", where, status.ToString().c_str());
  std::exit(1);
}

FleetMeasurement ReplayFleet(Index window, Index streams,
                             const BenchConfig& config) {
  StreamOptions stream_options;
  stream_options.window_length = window;
  stream_options.slide_step = std::max<Index>(1, window / 16);
  stream_options.min_length_xi =
      config.xi > 0 ? static_cast<Index>(config.xi) : window / 8;
  stream_options.threads = static_cast<int>(config.threads);

  const HaversineMetric metric;
  std::vector<Trajectory> data;
  for (Index s = 0; s < streams; ++s) {
    DatasetOptions options;
    options.length = static_cast<Index>(3 * window);
    options.seed = config.seed + static_cast<std::uint64_t>(s);
    data.push_back(MakeDataset(DatasetKind::kGeoLifeLike, options).value());
  }
  const Index points_per_stream = data[0].size();

  FleetMeasurement m;
  m.points = static_cast<std::int64_t>(streams) * points_per_stream;

  // --- N independent one-member fleets, round-robin. ---
  FleetOptions monitor_options;
  monitor_options.stream = stream_options;
  std::vector<MotifFleetEngine> monitors;
  for (Index s = 0; s < streams; ++s) {
    auto monitor = MotifFleetEngine::Create(monitor_options, metric);
    if (!monitor.ok()) Die(monitor.status(), "monitor");
    if (!monitor.value().AddStream().ok()) Die(Status::Internal(""), "add");
    monitors.push_back(std::move(monitor).value());
  }
  std::vector<std::vector<StreamUpdate>> monitor_updates(
      static_cast<std::size_t>(streams));
  Timer timer;
  for (Index k = 0; k < points_per_stream; ++k) {
    for (Index s = 0; s < streams; ++s) {
      auto report = monitors[static_cast<std::size_t>(s)].Push(0, data[s][k]);
      if (!report.ok()) Die(report.status(), "monitor push");
      for (FleetStreamUpdate& fu : report.value().updates) {
        monitor_updates[static_cast<std::size_t>(s)].push_back(
            std::move(fu.update));
      }
    }
  }
  m.monitors_seconds = timer.ElapsedSeconds();
  for (const auto& updates : monitor_updates) {
    m.monitor_slides += static_cast<std::int64_t>(updates.size());
    for (const StreamUpdate& u : updates) {
      m.monitor_cells += u.stats.dfd_cells_computed;
    }
  }

  // --- Fleet, parity mode: same round-robin through one arrival loop. ---
  FleetOptions parity_options;
  parity_options.stream = stream_options;
  auto parity = MotifFleetEngine::Create(parity_options, metric);
  if (!parity.ok()) Die(parity.status(), "fleet");
  for (Index s = 0; s < streams; ++s) {
    if (!parity.value().AddStream().ok()) Die(Status::Internal(""), "add");
  }
  std::vector<std::size_t> parity_seen(static_cast<std::size_t>(streams), 0);
  timer.Restart();
  std::vector<FleetArrival> batch;
  for (Index k = 0; k < points_per_stream; ++k) {
    batch.clear();
    for (Index s = 0; s < streams; ++s) {
      batch.push_back(FleetArrival{static_cast<std::size_t>(s), data[s][k],
                                   false, 0.0});
    }
    auto report = parity.value().Ingest(batch);
    if (!report.ok()) Die(report.status(), "fleet ingest");
    for (const FleetStreamUpdate& fu : report.value().updates) {
      m.parity_cells += fu.update.stats.dfd_cells_computed;
      const std::vector<StreamUpdate>& expected = monitor_updates[fu.stream];
      const std::size_t at = parity_seen[fu.stream]++;
      if (at >= expected.size() ||
          !(expected[at].motif.best == fu.update.motif.best) ||
          expected[at].motif.distance != fu.update.motif.distance ||
          expected[at].seeded != fu.update.seeded ||
          expected[at].carried != fu.update.carried) {
        std::fprintf(stderr,
                     "PARITY VIOLATION: fleet stream %zu update %zu differs "
                     "from its monitor\n",
                     fu.stream, at);
        std::exit(1);
      }
    }
  }
  m.parity_seconds = timer.ElapsedSeconds();
  for (Index s = 0; s < streams; ++s) {
    if (parity_seen[static_cast<std::size_t>(s)] !=
        monitor_updates[static_cast<std::size_t>(s)].size()) {
      std::fprintf(stderr, "PARITY VIOLATION: fleet missed updates\n");
      std::exit(1);
    }
  }

  // --- Fleet, budgeted: one slide period per Ingest, capacity N/2. ---
  FleetOptions budget_options;
  budget_options.stream = stream_options;
  budget_options.max_searches_per_drain =
      std::max(1, static_cast<int>(streams) / 2);
  auto budgeted = MotifFleetEngine::Create(budget_options, metric);
  if (!budgeted.ok()) Die(budgeted.status(), "fleet budgeted");
  for (Index s = 0; s < streams; ++s) {
    if (!budgeted.value().AddStream().ok()) Die(Status::Internal(""), "add");
  }
  timer.Restart();
  const Index slide = stream_options.slide_step;
  for (Index k0 = 0; k0 < points_per_stream; k0 += slide) {
    batch.clear();
    for (Index k = k0; k < std::min(points_per_stream, k0 + slide); ++k) {
      for (Index s = 0; s < streams; ++s) {
        batch.push_back(FleetArrival{static_cast<std::size_t>(s), data[s][k],
                                     false, 0.0});
      }
    }
    auto report = budgeted.value().Ingest(batch);
    if (!report.ok()) Die(report.status(), "fleet budgeted ingest");
    m.budgeted_slides +=
        static_cast<std::int64_t>(report.value().updates.size());
    for (const FleetStreamUpdate& fu : report.value().updates) {
      m.budgeted_cells += fu.update.stats.dfd_cells_computed;
    }
  }
  m.budgeted_seconds = timer.ElapsedSeconds();
  m.coalesced_slides = budgeted.value().stats().coalesced_slides;
  return m;
}

}  // namespace
}  // namespace bench
}  // namespace frechet_motif

int main(int argc, char** argv) {
  using namespace frechet_motif;
  using namespace frechet_motif::bench;

  BenchConfig config = ParseBenchConfig(argc, argv, /*default_lengths=*/
                                        {256}, /*default_xis=*/{},
                                        /*default_xi=*/0, /*default_n=*/8);
  if (config.smoke) config.lengths = {128};
  const Index streams =
      static_cast<Index>(std::max<std::int64_t>(2, config.n));
  PrintHeader("fleet",
              "Fleet streaming engine vs N independent monitors: shared "
              "arrival loop (parity) and budgeted slide coalescing",
              config);

  std::vector<KernelResult> results;
  for (std::int64_t length : config.lengths) {
    const Index window = static_cast<Index>(length);
    const FleetMeasurement m = ReplayFleet(window, streams, config);
    const double slides =
        m.monitor_slides > 0 ? static_cast<double>(m.monitor_slides) : 1.0;

    KernelResult monitors;
    monitors.name = "monitors_ingest";
    monitors.n = window;
    monitors.threads = config.threads;
    monitors.ns_per_op =
        m.monitors_seconds * 1e9 / static_cast<double>(m.points);
    monitors.iterations = m.points;
    monitors.extras["streams"] = static_cast<double>(streams);
    monitors.extras["points_per_sec"] =
        static_cast<double>(m.points) / m.monitors_seconds;
    monitors.extras["slides"] = static_cast<double>(m.monitor_slides);
    monitors.extras["dfd_cells_per_slide"] =
        static_cast<double>(m.monitor_cells) / slides;
    results.push_back(monitors);

    KernelResult parity;
    parity.name = "fleet_ingest_parity";
    parity.n = window;
    parity.threads = config.threads;
    parity.ns_per_op = m.parity_seconds * 1e9 / static_cast<double>(m.points);
    parity.iterations = m.points;
    parity.extras["streams"] = static_cast<double>(streams);
    parity.extras["points_per_sec"] =
        static_cast<double>(m.points) / m.parity_seconds;
    parity.extras["dfd_cells_per_slide"] =
        static_cast<double>(m.parity_cells) / slides;
    parity.extras["dp_cells_ratio_vs_monitors"] =
        m.monitor_cells > 0 ? static_cast<double>(m.parity_cells) /
                                  static_cast<double>(m.monitor_cells)
                            : 0.0;
    results.push_back(parity);

    KernelResult budgeted;
    budgeted.name = "fleet_search_budgeted";
    budgeted.n = window;
    budgeted.threads = config.threads;
    budgeted.ns_per_op =
        m.budgeted_seconds * 1e9 / static_cast<double>(m.points);
    budgeted.iterations = m.points;
    budgeted.extras["streams"] = static_cast<double>(streams);
    budgeted.extras["budget"] =
        static_cast<double>(std::max(1, static_cast<int>(streams) / 2));
    budgeted.extras["searches"] = static_cast<double>(m.budgeted_slides);
    budgeted.extras["coalesced_slides"] =
        static_cast<double>(m.coalesced_slides);
    budgeted.extras["dfd_cells_per_slide"] =
        static_cast<double>(m.budgeted_cells) / slides;
    // The acceptance ratio: budgeted-fleet DP cells over the monitors'
    // for the identical ingest. < 1.0 = coalescing pays.
    budgeted.extras["dp_cells_ratio_vs_monitors"] =
        m.monitor_cells > 0 ? static_cast<double>(m.budgeted_cells) /
                                  static_cast<double>(m.monitor_cells)
                            : 0.0;
    results.push_back(budgeted);

    std::printf(
        "W=%-5d N=%-3d monitors %.0f pts/s | fleet parity %.0f pts/s "
        "(cells ratio %.3f) | budgeted: %lld searches (%lld coalesced), "
        "cells ratio %.3f\n",
        window, streams, static_cast<double>(m.points) / m.monitors_seconds,
        static_cast<double>(m.points) / m.parity_seconds,
        m.monitor_cells > 0 ? static_cast<double>(m.parity_cells) /
                                  static_cast<double>(m.monitor_cells)
                            : 0.0,
        static_cast<long long>(m.budgeted_slides),
        static_cast<long long>(m.coalesced_slides),
        m.monitor_cells > 0 ? static_cast<double>(m.budgeted_cells) /
                                  static_cast<double>(m.monitor_cells)
                            : 0.0);
  }

  if (!config.json_path.empty() &&
      !WriteKernelJson(config.json_path, "fleet_throughput", config,
                       results)) {
    return 1;
  }
  return 0;
}
