// Self-timed throughput benchmark of the streaming sliding-window motif
// engine (src/stream/), in the same JSON pipeline as bench_micro_kernels:
//
//   ./bench_stream_throughput [--smoke] [--lengths=256,512] [--xi=N]
//       [--threads=N] [--json[=path]]
//
// For each window length W it replays a GeoLife-like stream through a
// one-member MotifFleetEngine, one point per Push (slide step W/16), and
// measures end-to-end points/second, then re-answers every slide from
// scratch with FindMotif(kBtm) on the identical window. Three kernels
// per W land in the JSON:
//
//   stream_ingest       ns per ingested point (searches amortized in)
//   stream_search       ns per slide, incremental engine
//   scratch_search      ns per slide, from-scratch baseline
//
// with extras recording the per-slide DFD-cell counts of both sides and
// their ratio — the acceptance signal that per-update work scales with
// the dirty region (the streaming count stays strictly below the
// from-scratch count), plus points_per_sec on the ingest kernel.
// Distances are asserted bit-identical along the way; a mismatch aborts.

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/motif.h"
#include "stream/motif_fleet_engine.h"
#include "util/timer.h"

namespace frechet_motif {
namespace bench {
namespace {

struct ReplayMeasurement {
  double ingest_seconds = 0.0;    // whole replay, searches included
  double stream_search_seconds = 0.0;
  double scratch_seconds = 0.0;
  std::int64_t points = 0;
  std::int64_t slides = 0;
  std::int64_t seeded = 0;
  std::int64_t stream_cells = 0;
  std::int64_t scratch_cells = 0;
};

ReplayMeasurement ReplayWindow(Index window, const BenchConfig& config) {
  StreamOptions options;
  options.window_length = window;
  options.slide_step = std::max<Index>(1, window / 16);
  options.min_length_xi =
      config.xi > 0 ? static_cast<Index>(config.xi) : window / 8;
  options.threads = static_cast<int>(config.threads);

  DatasetOptions data;
  data.length = static_cast<Index>(3 * window);
  data.seed = config.seed;
  const Trajectory t = MakeDataset(DatasetKind::kGeoLifeLike, data).value();
  const HaversineMetric metric;

  ReplayMeasurement m;
  FleetOptions fleet_options;
  fleet_options.stream = options;
  auto fleet = MotifFleetEngine::Create(fleet_options, metric);
  if (!fleet.ok() || !fleet.value().AddStream().ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<StreamUpdate> updates;
  Timer timer;
  for (Index k = 0; k < t.size(); ++k) {
    auto report = fleet.value().Push(0, t[k]);
    if (!report.ok()) {
      std::fprintf(stderr, "push: %s\n", report.status().ToString().c_str());
      std::exit(1);
    }
    for (FleetStreamUpdate& fu : report.value().updates) {
      updates.push_back(std::move(fu.update));
    }
  }
  m.ingest_seconds = timer.ElapsedSeconds();
  m.points = t.size();

  // Re-answer every slide from scratch on the identical window contents.
  // The windows are replayed from the original trajectory via the global
  // start index each update reports.
  for (const StreamUpdate& u : updates) {
    ++m.slides;
    if (u.seeded) ++m.seeded;
    m.stream_search_seconds += u.stats.total_seconds();
    m.stream_cells += u.stats.dfd_cells_computed;

    const Trajectory w = t.Slice(static_cast<Index>(u.window_start),
                                 static_cast<Index>(u.window_start) +
                                     u.window_points - 1);
    MotifStats stats;
    timer.Restart();
    auto scratch = FindMotif(w, metric, options.BaselineOptions(), &stats);
    m.scratch_seconds += timer.ElapsedSeconds();
    if (!scratch.ok()) {
      std::fprintf(stderr, "scratch: %s\n",
                   scratch.status().ToString().c_str());
      std::exit(1);
    }
    m.scratch_cells += stats.dfd_cells_computed;
    if (scratch.value().distance != u.motif.distance) {
      std::fprintf(stderr,
                   "PARITY VIOLATION at window_start=%lld: stream %.17g vs "
                   "scratch %.17g\n",
                   static_cast<long long>(u.window_start), u.motif.distance,
                   scratch.value().distance);
      std::exit(1);
    }
  }
  return m;
}

}  // namespace
}  // namespace bench
}  // namespace frechet_motif

int main(int argc, char** argv) {
  using namespace frechet_motif;
  using namespace frechet_motif::bench;

  BenchConfig config = ParseBenchConfig(argc, argv, /*default_lengths=*/
                                        {256, 512}, /*default_xis=*/{},
                                        /*default_xi=*/0, /*default_n=*/0);
  if (config.smoke) config.lengths = {128, 192};
  PrintHeader("stream",
              "Streaming sliding-window motif engine: ingest throughput and "
              "per-slide work vs a from-scratch re-search",
              config);

  std::vector<KernelResult> results;
  for (std::int64_t length : config.lengths) {
    const Index window = static_cast<Index>(length);
    const ReplayMeasurement m = ReplayWindow(window, config);
    const double slides = m.slides > 0 ? static_cast<double>(m.slides) : 1.0;

    KernelResult ingest;
    ingest.name = "stream_ingest";
    ingest.n = window;
    ingest.threads = config.threads;
    ingest.ns_per_op = m.ingest_seconds * 1e9 / static_cast<double>(m.points);
    ingest.iterations = m.points;
    ingest.extras["points_per_sec"] =
        static_cast<double>(m.points) / m.ingest_seconds;
    ingest.extras["slides"] = static_cast<double>(m.slides);
    ingest.extras["seeded_slides"] = static_cast<double>(m.seeded);
    results.push_back(ingest);

    KernelResult stream;
    stream.name = "stream_search";
    stream.n = window;
    stream.threads = config.threads;
    stream.ns_per_op = m.stream_search_seconds * 1e9 / slides;
    stream.iterations = m.slides;
    stream.extras["dfd_cells_per_slide"] =
        static_cast<double>(m.stream_cells) / slides;
    results.push_back(stream);

    KernelResult scratch;
    scratch.name = "scratch_search";
    scratch.n = window;
    scratch.threads = config.threads;
    scratch.ns_per_op = m.scratch_seconds * 1e9 / slides;
    scratch.iterations = m.slides;
    scratch.extras["dfd_cells_per_slide"] =
        static_cast<double>(m.scratch_cells) / slides;
    scratch.extras["stream_cells_ratio"] =
        m.scratch_cells > 0 ? static_cast<double>(m.stream_cells) /
                                  static_cast<double>(m.scratch_cells)
                            : 0.0;
    results.push_back(scratch);

    std::printf(
        "W=%-5d  %9.0f points/s  slides=%lld (%lld seeded)  "
        "cells/slide: stream=%.0f scratch=%.0f (ratio %.3f)\n",
        window, static_cast<double>(m.points) / m.ingest_seconds,
        static_cast<long long>(m.slides), static_cast<long long>(m.seeded),
        static_cast<double>(m.stream_cells) / slides,
        static_cast<double>(m.scratch_cells) / slides,
        m.scratch_cells > 0
            ? static_cast<double>(m.stream_cells) /
                  static_cast<double>(m.scratch_cells)
            : 0.0);
  }

  if (!config.json_path.empty() &&
      !WriteKernelJson(config.json_path, "stream_throughput", config,
                       results)) {
    return 1;
  }
  return 0;
}
