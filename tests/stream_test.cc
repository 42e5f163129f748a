// Tests of the streaming sliding-window motif engine: ring-matrix
// maintenance, incremental bound maintenance under eviction, and the
// headline guarantee — after every slide the streaming answer (a
// one-member fleet fed one point per call) is bit-identical to a
// from-scratch FindMotif on the identical window, while doing strictly
// less DP work on seeded slides.

#include <cmath>
#include <optional>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "motif/motif.h"
#include "motif/relaxed_bounds.h"
#include "similarity/frechet.h"
#include "stream/motif_fleet_engine.h"
#include "stream/window_state.h"
#include "stream_test_util.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

Trajectory GeoWalk(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

// --- RingDistanceMatrix -----------------------------------------------------

TEST(RingDistanceMatrix, SelfMatrixMatchesBuildAfterEvictions) {
  const Trajectory t = GeoWalk(40, 11);
  const HaversineMetric metric;
  const Index w = 16;
  RingDistanceMatrix ring(w, w);
  std::vector<Point> window;
  for (Index k = 0; k < t.size(); ++k) {
    if (static_cast<Index>(window.size()) == w) {
      window.erase(window.begin());
    }
    const Point p = t[k];
    std::vector<double> new_to_k;
    std::vector<double> k_to_new;
    for (const Point& q : window) {
      new_to_k.push_back(metric.Distance(p, q));
      k_to_new.push_back(metric.Distance(q, p));
    }
    ring.AppendPoint(new_to_k.data(), k_to_new.data(), metric.Distance(p, p));
    window.push_back(p);

    ASSERT_EQ(static_cast<Index>(window.size()), ring.rows());
    ASSERT_EQ(ring.rows(), ring.cols());
    const Trajectory wt{std::vector<Point>(window.begin(), window.end())};
    const DistanceMatrix fresh = DistanceMatrix::Build(wt, metric).value();
    for (Index i = 0; i < ring.rows(); ++i) {
      for (Index j = 0; j < ring.cols(); ++j) {
        ASSERT_EQ(fresh.Distance(i, j), ring.Distance(i, j))
            << "cell (" << i << "," << j << ") after point " << k;
      }
    }
  }
}

TEST(RingDistanceMatrix, CrossMatrixRowColAppends) {
  const Trajectory a = GeoWalk(30, 3);
  const Trajectory b = GeoWalk(30, 4);
  const HaversineMetric metric;
  RingDistanceMatrix ring(8, 12);
  std::vector<Point> rows_pts;
  std::vector<Point> cols_pts;
  for (Index k = 0; k < 30; ++k) {
    if (static_cast<Index>(rows_pts.size()) == 8) {
      rows_pts.erase(rows_pts.begin());
    }
    const Point pr = a[k];
    std::vector<double> row;
    for (const Point& q : cols_pts) row.push_back(metric.Distance(pr, q));
    ring.AppendRow(row.data());
    rows_pts.push_back(pr);

    if (static_cast<Index>(cols_pts.size()) == 12) {
      cols_pts.erase(cols_pts.begin());
    }
    const Point pc = b[k];
    std::vector<double> col;
    for (const Point& q : rows_pts) col.push_back(metric.Distance(q, pc));
    ring.AppendCol(col.data());
    cols_pts.push_back(pc);
  }
  ASSERT_EQ(8, ring.rows());
  ASSERT_EQ(12, ring.cols());
  for (Index i = 0; i < ring.rows(); ++i) {
    for (Index j = 0; j < ring.cols(); ++j) {
      ASSERT_EQ(metric.Distance(rows_pts[i], cols_pts[j]), ring.Distance(i, j));
    }
  }
}

// --- Incremental bound maintenance ------------------------------------------

TEST(StreamingBounds, MaintainedArraysEqualFreshBuildAtEverySlide) {
  StreamOptions options;
  options.window_length = 60;
  options.slide_step = 7;  // not a divisor of the window, to move the heads
  options.min_length_xi = 10;
  const HaversineMetric metric;
  // Driven directly (not through a fleet) for the CurrentBounds() hook.
  auto state = WindowState::Create(options, metric, /*cross=*/false);
  ASSERT_TRUE(state.ok()) << state.status();

  MotifOptions motif;
  motif.min_length_xi = options.min_length_xi;
  motif.variant = MotifVariant::kSingleTrajectory;

  const Trajectory t = GeoWalk(300, 21);
  int checked = 0;
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(state.value().Append(0, t[k], nullptr).ok());
    if (!state.value().SearchDue()) continue;
    auto update = state.value().RunSearch(nullptr);
    ASSERT_TRUE(update.ok()) << update.status();
    const Trajectory window = state.value().WindowTrajectory(0);
    const DistanceMatrix dg = DistanceMatrix::Build(window, metric).value();
    const RelaxedBounds fresh = RelaxedBounds::Build(dg, motif);
    const RelaxedBounds maintained = state.value().CurrentBounds();
    const Index w = options.window_length;
    for (Index j = 0; j < w; ++j) {
      ASSERT_EQ(fresh.Rmin(j), maintained.Rmin(j)) << "Rmin " << j;
      ASSERT_EQ(fresh.RminFull(j), maintained.RminFull(j)) << "RminFull " << j;
      ASSERT_EQ(fresh.BandRow(j), maintained.BandRow(j)) << "BandRow " << j;
    }
    for (Index i = 0; i < w; ++i) {
      ASSERT_EQ(fresh.Cmin(i), maintained.Cmin(i)) << "Cmin " << i;
      ASSERT_EQ(fresh.CminStart(i), maintained.CminStart(i))
          << "CminStart " << i;
      ASSERT_EQ(fresh.CminFull(i), maintained.CminFull(i)) << "CminFull " << i;
      ASSERT_EQ(fresh.BandCol(i), maintained.BandCol(i)) << "BandCol " << i;
    }
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

// --- Streaming <-> batch parity ---------------------------------------------

/// Replays `t` through a one-member fleet and, at every slide, requires the
/// streaming answer to equal a from-scratch FindMotif over the identical
/// window — candidate and distance, bit for bit. Returns the number of
/// (seeded searches, searches where streaming did strictly fewer DP
/// cells than from-scratch).
struct ParityOutcome {
  int searches = 0;
  int seeded = 0;
  int strictly_fewer_cells = 0;
  std::int64_t stream_cells = 0;
  std::int64_t scratch_cells = 0;
};

ParityOutcome ReplayAndCheckParity(const Trajectory& t,
                                   const StreamOptions& options,
                                   const GroundMetric& metric) {
  ParityOutcome outcome;
  auto fleet = testing_util::OneMemberFleet(options, metric);
  EXPECT_TRUE(fleet.ok()) << fleet.status();
  if (!fleet.ok()) return outcome;
  for (Index k = 0; k < t.size(); ++k) {
    auto push = testing_util::SoleUpdate(fleet.value().Push(0, t[k]));
    EXPECT_TRUE(push.ok()) << push.status();
    if (!push.ok() || !push.value().has_value()) continue;
    const StreamUpdate& update = *push.value();

    MotifStats scratch_stats;
    const Trajectory window = fleet.value().WindowTrajectory(0);
    auto scratch = FindMotif(window, metric, options.BaselineOptions(),
                             &scratch_stats);
    EXPECT_TRUE(scratch.ok()) << scratch.status();
    if (!scratch.ok()) return outcome;

    EXPECT_EQ(scratch.value().found, update.motif.found);
    // Candidate and distance are unconditionally bit-identical to
    // from-scratch — carried slides and exact ties included (both paths
    // resolve equal distances to the canonical candidate order).
    EXPECT_EQ(scratch.value().distance, update.motif.distance)
        << "slide at window_start=" << update.window_start;
    EXPECT_EQ(scratch.value().best, update.motif.best)
        << "slide at window_start=" << update.window_start
        << (update.carried ? " (carried)" : "");

    ++outcome.searches;
    outcome.stream_cells += update.stats.dfd_cells_computed;
    outcome.scratch_cells += scratch_stats.dfd_cells_computed;
    if (update.seeded) {
      ++outcome.seeded;
      // The seeded search can never do more DP work than from-scratch
      // (it prunes against a tighter-or-equal threshold throughout).
      EXPECT_LE(update.stats.dfd_cells_computed,
                scratch_stats.dfd_cells_computed);
      if (update.stats.dfd_cells_computed <
          scratch_stats.dfd_cells_computed) {
        ++outcome.strictly_fewer_cells;
      }
    }
  }
  return outcome;
}

TEST(StreamingParity, ThousandPointReplayBitIdenticalAndCheaper) {
  StreamOptions options;
  options.window_length = 160;
  options.slide_step = 16;
  options.min_length_xi = 24;
  const HaversineMetric metric;
  const Trajectory t = GeoWalk(1200, 7);
  const ParityOutcome outcome = ReplayAndCheckParity(t, options, metric);
  EXPECT_EQ((1200 - 160) / 16 + 1, outcome.searches);
  // Nearly every slide should find its previous best still in the window.
  EXPECT_GE(outcome.seeded, outcome.searches / 2);
  // The whole point of the engine: never more DP work than re-running
  // from scratch (asserted per slide inside the replay), strictly less
  // on the vast majority of seeded slides, and strictly less in
  // aggregate. (A handful of slides tie: when the from-scratch queue
  // collapses after its very first evaluated subset there is nothing
  // left for the dirty-region restriction to remove.)
  EXPECT_GE(outcome.strictly_fewer_cells, outcome.seeded * 2 / 3);
  EXPECT_LT(outcome.stream_cells, outcome.scratch_cells);
}

TEST(StreamingParity, EuclideanMetricReplay) {
  StreamOptions options;
  options.window_length = 120;
  options.slide_step = 24;
  options.min_length_xi = 16;
  const EuclideanMetric metric;
  const Trajectory t = testing_util::MakePlanarWalk(600, 13);
  // Planar-walk data produces genuine exact-distance ties (overlapping
  // pairs sharing one bottleneck cell) — exactly the case the canonical
  // tie-break exists for: carried slides must now match from-scratch
  // pair-for-pair, not just distance-for-distance.
  const ParityOutcome outcome = ReplayAndCheckParity(t, options, metric);
  EXPECT_EQ((600 - 120) / 24 + 1, outcome.searches);
  EXPECT_LT(outcome.stream_cells, outcome.scratch_cells);
}

TEST(StreamingParity, ColdSlidesWhenWindowFullyTurnsOver) {
  // slide_step == window_length: every slide replaces the whole window,
  // so no search can be seeded — each one degenerates to from-scratch
  // and must still match it exactly.
  StreamOptions options;
  options.window_length = 80;
  options.slide_step = 80;
  options.min_length_xi = 12;
  const HaversineMetric metric;
  const Trajectory t = GeoWalk(400, 29);
  const ParityOutcome outcome = ReplayAndCheckParity(t, options, metric);
  EXPECT_EQ(5, outcome.searches);
  EXPECT_EQ(0, outcome.seeded);
  EXPECT_EQ(outcome.stream_cells, outcome.scratch_cells);
}

TEST(StreamingParity, CrossTrajectoryWindows) {
  StreamOptions options;
  options.window_length = 70;
  options.slide_step = 20;
  options.min_length_xi = 10;
  const HaversineMetric metric;
  const Trajectory a = GeoWalk(300, 31);
  const Trajectory b = GeoWalk(300, 32);
  auto fleet = testing_util::OneMemberFleet(options, metric, /*cross=*/true);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  int searches = 0;
  for (Index k = 0; k < 300; ++k) {
    for (std::size_t side = 0; side < 2; ++side) {
      auto push = testing_util::SoleUpdate(
          fleet.value().Push(side, side == 0 ? a[k] : b[k]));
      ASSERT_TRUE(push.ok()) << push.status();
      if (!push.value().has_value()) continue;
      const StreamUpdate& update = *push.value();
      auto scratch = FindMotif(fleet.value().WindowTrajectory(0),
                               fleet.value().WindowTrajectory(1), metric,
                               options.BaselineOptions());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      EXPECT_EQ(scratch.value().best, update.motif.best);
      EXPECT_EQ(scratch.value().distance, update.motif.distance);
      ++searches;
    }
  }
  EXPECT_GT(searches, 10);
}

// --- API edges ---------------------------------------------------------------

TEST(StreamingMonitor, RejectsInvalidOptions) {
  const HaversineMetric metric;
  StreamOptions too_small;
  too_small.window_length = 20;
  too_small.min_length_xi = 10;  // needs W >= 2*xi + 4
  EXPECT_FALSE(testing_util::OneMemberFleet(too_small, metric).ok());

  StreamOptions bad_step;
  bad_step.slide_step = 0;
  EXPECT_FALSE(testing_util::OneMemberFleet(bad_step, metric).ok());
}

TEST(StreamingMonitor, PushSecondRequiresCrossMode) {
  // A single-stream member has no second side: id 1 exists only for a
  // cross pair.
  const HaversineMetric metric;
  StreamOptions options;
  options.window_length = 40;
  options.min_length_xi = 8;
  auto fleet = testing_util::OneMemberFleet(options, metric);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            fleet.value().Push(1, LatLon(0, 0)).status().code());
}

TEST(StreamingMonitor, RejectsMixedTimestampedPushes) {
  const HaversineMetric metric;
  StreamOptions options;
  options.window_length = 40;
  options.min_length_xi = 8;
  auto fleet = testing_util::OneMemberFleet(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet.value().Push(0, LatLon(39.9, 116.3), 100.0).ok());
  EXPECT_FALSE(fleet.value().Push(0, LatLon(39.9, 116.3)).ok());
}

TEST(StreamingMonitor, WindowTrajectoryCarriesTimestamps) {
  const HaversineMetric metric;
  StreamOptions options;
  options.window_length = 24;
  options.slide_step = 4;
  options.min_length_xi = 4;
  auto fleet = testing_util::OneMemberFleet(options, metric);
  ASSERT_TRUE(fleet.ok());
  const Trajectory t = GeoWalk(40, 5);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k], 10.0 * k).ok());
  }
  const Trajectory window = fleet.value().WindowTrajectory(0);
  ASSERT_TRUE(window.has_timestamps());
  ASSERT_EQ(24, window.size());
  EXPECT_EQ(10.0 * (40 - 24), window.timestamp(0));
  EXPECT_EQ(10.0 * 39, window.timestamp(23));
  EXPECT_EQ(static_cast<std::int64_t>(40 - 24),
            fleet.value().stream_stats(0).points_ingested - window.size());
}

TEST(StreamingMonitor, PushBatchEmitsEveryDueUpdate) {
  const HaversineMetric metric;
  StreamOptions options;
  options.window_length = 60;
  options.slide_step = 10;
  options.min_length_xi = 8;
  auto fleet = testing_util::OneMemberFleet(options, metric);
  ASSERT_TRUE(fleet.ok());
  const Trajectory t = GeoWalk(200, 17);
  std::vector<FleetArrival> batch;
  for (const Point& p : t.points()) {
    batch.push_back(FleetArrival{0, p, false, 0.0});
  }
  auto report = fleet.value().Ingest(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::vector<FleetStreamUpdate>& updates = report.value().updates;
  EXPECT_EQ((200 - 60) / 10 + 1, static_cast<Index>(updates.size()));
  const StreamEngineStats& stats = fleet.value().stream_stats(0);
  EXPECT_EQ(200, stats.points_ingested);
  EXPECT_EQ(static_cast<std::int64_t>(updates.size()), stats.searches);
  EXPECT_GT(stats.ground_distances_computed, 0);
}

}  // namespace
}  // namespace frechet_motif
