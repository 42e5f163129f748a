// Accuracy/work sweep of the (1+ε) approximate search knob
// (FindMotifOptions / StreamOptions :: approximation_epsilon):
//
//   ./bench_approx_sweep [--smoke] [--n=N] [--xi=N] [--json[=path]]
//
// The workload is a *near-tie* trajectory — a base loop repeated with
// small jitter, so many candidate pairs land within a few percent of the
// optimal distance. That is exactly the regime the exact search pays for
// (every near-tie's lower bound sits just under the threshold and must
// be refined) and the regime ε-pruning is built for (lb·(1+ε) > T
// discharges the whole tie band at the bound level).
//
// For each ε in {0, 0.01, 0.05, 0.1} two legs run:
//
//   batch_search    FindMotif (GTM) over the whole trajectory
//   stream_search   one-member MotifFleetEngine replay, per-slide answers
//                   compared against a from-scratch exact search on the
//                   identical window
//
// Each JSON row records the DP-cell count and the achieved-distance
// ratio (reported / exact; streaming reports the worst ratio across all
// slides). The bench enforces the approximation contract as it runs and
// aborts on violation:
//
//   * every ratio is <= 1+ε (per window in the streaming leg), and
//   * the ε=0 rows are bit-identical to the exact baseline
//     (extras.bit_identical_to_exact records the check for the CI gate).
//
// scripts/check_bench.py re-validates the committed
// BENCH_approx.json: cells non-increasing in ε, ratio <= 1+ε per row,
// ε=0 bit-identity flags set.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "bench_common.h"
#include "geo/metric.h"
#include "motif/motif.h"
#include "stream/motif_fleet_engine.h"

namespace frechet_motif {
namespace bench {
namespace {

constexpr double kEpsilons[] = {0.0, 0.01, 0.05, 0.1};

/// A base random walk of `period` points repeated `repeats` times, each
/// repeat jittered by up to `jitter` per coordinate: every pair of
/// repeats is a near-optimal motif, so candidate distances cluster in a
/// band of width ~2·jitter above the optimum. Planar coordinates, meant
/// for the Euclidean metric.
Trajectory MakeNearTieWorkload(Index period, int repeats, double step,
                               double jitter, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
  std::uniform_real_distribution<double> noise(-jitter, jitter);

  std::vector<Point> base;
  double x = 0.0;
  double y = 0.0;
  base.reserve(static_cast<std::size_t>(period));
  for (Index k = 0; k < period; ++k) {
    const double a = angle(rng);
    x += step * std::cos(a);
    y += step * std::sin(a);
    base.push_back(LatLon(x, y));
  }

  Trajectory t;
  for (int r = 0; r < repeats; ++r) {
    for (const Point& p : base) {
      t.Append(LatLon(p.lat() + noise(rng), p.lon() + noise(rng)));
    }
  }
  return t;
}

void Abort(const char* what, double eps, double ratio) {
  std::fprintf(stderr,
               "APPROXIMATION CONTRACT VIOLATION (%s, eps=%g): ratio %.17g "
               "exceeds 1+eps\n",
               what, eps, ratio);
  std::exit(1);
}

struct BatchRun {
  double distance = 0.0;
  std::int64_t cells = 0;
};

BatchRun RunBatch(const Trajectory& t, Index xi, double eps) {
  FindMotifOptions options;
  options.algorithm = MotifAlgorithm::kGtm;
  options.min_length_xi = xi;
  options.approximation_epsilon = eps;
  MotifStats stats;
  const auto r = FindMotif(t, Euclidean(), options, &stats);
  if (!r.ok()) {
    std::fprintf(stderr, "batch: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  BatchRun out;
  out.distance = r.value().distance;
  out.cells = stats.dfd_cells_computed;
  return out;
}

struct StreamRun {
  std::int64_t slides = 0;
  std::int64_t cells = 0;
  double worst_ratio = 1.0;
  bool bit_identical = true;
};

/// Replays the workload at the given ε and grades every slide against a
/// from-scratch exact (ε=0) search on the identical window. The exact
/// answers are computed once by the caller (they do not depend on ε) and
/// indexed by slide number — every ε leg sees the same slide schedule.
StreamRun RunStream(const Trajectory& t, const StreamOptions& base,
                    double eps, std::vector<double>* exact_by_slide) {
  FleetOptions options;
  options.stream = base;
  options.stream.approximation_epsilon = eps;
  auto fleet = MotifFleetEngine::Create(options, Euclidean());
  if (!fleet.ok() || !fleet.value().AddStream().ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet.status().ToString().c_str());
    std::exit(1);
  }

  StreamRun m;
  for (Index k = 0; k < t.size(); ++k) {
    auto report = fleet.value().Push(0, t[k]);
    if (!report.ok()) {
      std::fprintf(stderr, "push: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    if (report.value().updates.empty()) continue;
    const StreamUpdate& u = report.value().updates.front().update;
    m.cells += u.stats.dfd_cells_computed;

    // Exact per-window baseline, computed on the first (ε=0) leg and
    // replayed for every other ε — the slide schedule is ε-independent.
    const std::size_t slide = static_cast<std::size_t>(m.slides);
    ++m.slides;
    if (slide >= exact_by_slide->size()) {
      const Trajectory w = t.Slice(static_cast<Index>(u.window_start),
                                   static_cast<Index>(u.window_start) +
                                       u.window_points - 1);
      StreamOptions exact_options = base;
      const auto scratch =
          FindMotif(w, Euclidean(), exact_options.BaselineOptions(), nullptr);
      if (!scratch.ok()) {
        std::fprintf(stderr, "scratch: %s\n",
                     scratch.status().ToString().c_str());
        std::exit(1);
      }
      exact_by_slide->push_back(scratch.value().distance);
    }
    const double exact = (*exact_by_slide)[slide];
    if (u.motif.distance != exact) m.bit_identical = false;
    if (exact > 0.0) {
      const double ratio = u.motif.distance / exact;
      if (ratio > m.worst_ratio) m.worst_ratio = ratio;
      if (ratio > (1.0 + eps) * (1.0 + 1e-12)) {
        Abort("stream", eps, ratio);
      }
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

  BenchConfig config = ParseBenchConfig(argc, argv, /*default_lengths=*/{},
                                        /*default_xis=*/{},
                                        /*default_xi=*/24, /*default_n=*/0);
  // Near-tie geometry: a 64-point loop repeated 10 times with jitter two
  // orders of magnitude below the step, i.e. repeats differ by ~1% of
  // the typical ground distance — inside every tested tie band.
  Index period = 64;
  int repeats = 10;
  const double step = 10.0;
  const double jitter = 0.05;
  if (config.smoke) {
    period = 32;
    repeats = 6;
  }
  const Index xi = static_cast<Index>(config.xi);
  const Trajectory t =
      MakeNearTieWorkload(period, repeats, step, jitter, config.seed);

  PrintHeader("approx",
              "(1+eps) approximate search: DP cells and achieved-distance "
              "ratio vs eps, batch and streaming, near-tie workload",
              config);

  std::vector<KernelResult> results;

  // --- batch leg -----------------------------------------------------------
  const BatchRun exact = RunBatch(t, xi, 0.0);
  for (const double eps : kEpsilons) {
    const BatchRun run = eps == 0.0 ? exact : RunBatch(t, xi, eps);
    const double ratio =
        exact.distance > 0.0 ? run.distance / exact.distance : 1.0;
    if (ratio > (1.0 + eps) * (1.0 + 1e-12)) Abort("batch", eps, ratio);
    const bool bits_equal =
        std::memcmp(&run.distance, &exact.distance, sizeof(double)) == 0;
    if (eps == 0.0 && !bits_equal) {
      std::fprintf(stderr, "eps=0 batch run is not bit-identical\n");
      return 1;
    }

    KernelResult r;
    r.name = "batch_search";
    r.n = t.size();
    r.threads = 1;
    r.iterations = 1;
    r.extras["approx_eps"] = eps;
    r.extras["dfd_cells"] = static_cast<double>(run.cells);
    r.extras["distance_m"] = run.distance;
    r.extras["distance_ratio"] = ratio;
    r.extras["cells_vs_exact"] =
        exact.cells > 0
            ? static_cast<double>(run.cells) / static_cast<double>(exact.cells)
            : 1.0;
    r.extras["bit_identical_to_exact"] = bits_equal ? 1.0 : 0.0;
    results.push_back(r);
    std::printf("batch   eps=%-5g cells=%-10lld ratio=%.6f (%.1f%% of exact "
                "cells)\n",
                eps, static_cast<long long>(run.cells), ratio,
                100.0 * r.extras["cells_vs_exact"]);
  }

  // --- streaming leg -------------------------------------------------------
  StreamOptions stream;
  stream.window_length = static_cast<Index>(3 * period);
  stream.slide_step = std::max<Index>(1, period / 4);
  stream.min_length_xi = xi;
  std::vector<double> exact_by_slide;
  const StreamRun stream_exact = RunStream(t, stream, 0.0, &exact_by_slide);
  if (!stream_exact.bit_identical) {
    std::fprintf(stderr, "eps=0 streaming run is not bit-identical\n");
    return 1;
  }
  for (const double eps : kEpsilons) {
    const StreamRun run =
        eps == 0.0 ? stream_exact : RunStream(t, stream, eps, &exact_by_slide);
    const double slides =
        run.slides > 0 ? static_cast<double>(run.slides) : 1.0;

    KernelResult r;
    r.name = "stream_search";
    r.n = stream.window_length;
    r.threads = 1;
    r.iterations = run.slides;
    r.extras["approx_eps"] = eps;
    r.extras["dfd_cells"] = static_cast<double>(run.cells);
    r.extras["dfd_cells_per_slide"] = static_cast<double>(run.cells) / slides;
    r.extras["max_distance_ratio"] = run.worst_ratio;
    r.extras["cells_vs_exact"] =
        stream_exact.cells > 0 ? static_cast<double>(run.cells) /
                                     static_cast<double>(stream_exact.cells)
                               : 1.0;
    r.extras["bit_identical_to_exact"] = run.bit_identical ? 1.0 : 0.0;
    results.push_back(r);
    std::printf("stream  eps=%-5g cells=%-10lld worst ratio=%.6f (%.1f%% of "
                "exact cells)\n",
                eps, static_cast<long long>(run.cells), run.worst_ratio,
                100.0 * r.extras["cells_vs_exact"]);
  }

  if (!config.json_path.empty() &&
      !WriteKernelJson(config.json_path, "approx_sweep", config, results)) {
    return 1;
  }
  return 0;
}
