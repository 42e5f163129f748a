// Tests for the supporting extensions: coupling extraction, trajectory
// summaries, Douglas-Peucker simplification and the cached haversine
// provider's bit-equality with fresh evaluation.

#include <gtest/gtest.h>

#include <cmath>

#include "core/distance_matrix.h"
#include "core/trajectory_stats.h"
#include "data/datasets.h"
#include "data/simplify.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::RowSpanMismatches;

// ----------------------------------------------------------------- coupling

TEST(CouplingTest, DistanceMatchesScalarDfd) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Trajectory a = MakePlanarWalk(20, seed);
    const Trajectory b = MakePlanarWalk(25, seed + 30);
    const Coupling c = DiscreteFrechetCoupling(a, b, Euclidean()).value();
    EXPECT_DOUBLE_EQ(c.distance,
                     DiscreteFrechet(a, b, Euclidean()).value());
  }
}

TEST(CouplingTest, StepsFormMonotonePathCoveringBothEnds) {
  const Trajectory a = MakePlanarWalk(15, 3);
  const Trajectory b = MakePlanarWalk(18, 4);
  const Coupling c = DiscreteFrechetCoupling(a, b, Euclidean()).value();
  ASSERT_FALSE(c.steps.empty());
  EXPECT_EQ(c.steps.front(), (CouplingStep{0, 0}));
  EXPECT_EQ(c.steps.back(), (CouplingStep{14, 17}));
  for (std::size_t k = 1; k < c.steps.size(); ++k) {
    const Index dap = c.steps[k].ap - c.steps[k - 1].ap;
    const Index dbq = c.steps[k].bq - c.steps[k - 1].bq;
    EXPECT_GE(dap, 0);
    EXPECT_GE(dbq, 0);
    EXPECT_LE(dap, 1);
    EXPECT_LE(dbq, 1);
    EXPECT_GE(dap + dbq, 1);  // must advance
  }
}

TEST(CouplingTest, MaxLinkEqualsDistance) {
  const Trajectory a = MakePlanarWalk(22, 5);
  const Trajectory b = MakePlanarWalk(19, 6);
  const Coupling c = DiscreteFrechetCoupling(a, b, Euclidean()).value();
  double worst = 0.0;
  for (const CouplingStep& s : c.steps) {
    worst = std::max(worst, Euclidean().Distance(a[s.ap], b[s.bq]));
  }
  EXPECT_DOUBLE_EQ(worst, c.distance);
}

TEST(CouplingTest, IdenticalTrajectoriesCoupleDiagonally) {
  const Trajectory a = MakePlanarWalk(12, 7);
  const Coupling c = DiscreteFrechetCoupling(a, a, Euclidean()).value();
  EXPECT_DOUBLE_EQ(c.distance, 0.0);
  EXPECT_EQ(c.steps.size(), 12u);  // pure diagonal
}

// ------------------------------------------------------------- summaries

TEST(SummaryTest, RejectsEmpty) {
  Trajectory empty;
  EXPECT_FALSE(Summarize(empty, Euclidean()).ok());
}

TEST(SummaryTest, StraightLineNumbers) {
  Trajectory t;
  for (int k = 0; k < 5; ++k) {
    t.Append(Point(10.0 * k, 0.0), 2.0 * k);
  }
  const TrajectorySummary s = Summarize(t, Euclidean()).value();
  EXPECT_EQ(s.num_points, 5);
  EXPECT_DOUBLE_EQ(s.path_length_m, 40.0);
  EXPECT_DOUBLE_EQ(s.net_displacement_m, 40.0);
  EXPECT_DOUBLE_EQ(s.duration_s, 8.0);
  EXPECT_DOUBLE_EQ(s.mean_speed_mps, 5.0);
  EXPECT_DOUBLE_EQ(s.median_period_s, 2.0);
  EXPECT_EQ(s.dropout_events, 0);
}

TEST(SummaryTest, DetectsDropouts) {
  Trajectory t;
  double clock = 0.0;
  for (int k = 0; k < 50; ++k) {
    clock += (k == 20 || k == 35) ? 50.0 : 1.0;  // two large gaps
    t.Append(Point(static_cast<double>(k), 0.0), clock);
  }
  const TrajectorySummary s = Summarize(t, Euclidean()).value();
  EXPECT_EQ(s.dropout_events, 2);
  EXPECT_DOUBLE_EQ(s.median_period_s, 1.0);
  EXPECT_DOUBLE_EQ(s.max_period_s, 50.0);
}

TEST(SummaryTest, DatasetSummariesAreSane) {
  DatasetOptions d;
  d.length = 400;
  for (const DatasetKind kind : kAllDatasetKinds) {
    const Trajectory t = MakeDataset(kind, d).value();
    const TrajectorySummary s = Summarize(t, Haversine()).value();
    EXPECT_EQ(s.num_points, 400);
    EXPECT_GT(s.path_length_m, 0.0);
    EXPECT_GE(s.path_length_m, s.net_displacement_m);
    EXPECT_GT(s.mean_speed_mps, 0.0);
    EXPECT_LT(s.mean_speed_mps, 50.0) << DatasetName(kind);
    EXPECT_FALSE(s.ToString().empty());
  }
}

// ---------------------------------------------------------- simplification

TEST(SimplifyTest, RejectsBadInputs) {
  Trajectory empty;
  EXPECT_FALSE(SimplifyDouglasPeucker(empty, 1.0).ok());
  const Trajectory t = MakePlanarWalk(10, 1);
  EXPECT_FALSE(SimplifyDouglasPeucker(t, -0.1).ok());
}

TEST(SimplifyTest, KeepsEndpointsAndShrinks) {
  DatasetOptions d;
  d.length = 500;
  const Trajectory t = MakeDataset(DatasetKind::kGeoLifeLike, d).value();
  const Trajectory s = SimplifyDouglasPeucker(t, 15.0).value();
  ASSERT_GE(s.size(), 2);
  EXPECT_LT(s.size(), t.size());
  EXPECT_EQ(s[0], t[0]);
  EXPECT_EQ(s[s.size() - 1], t[t.size() - 1]);
  EXPECT_TRUE(s.has_timestamps());
}

TEST(SimplifyTest, DroppedPointsStayWithinTolerance) {
  DatasetOptions d;
  d.length = 300;
  d.seed = 17;
  const Trajectory t = MakeDataset(DatasetKind::kTruckLike, d).value();
  const double tolerance = 40.0;
  const Trajectory s = SimplifyDouglasPeucker(t, tolerance).value();

  // For each original point, distance to the nearest simplified segment
  // must be <= tolerance (evaluated in the local meter frame).
  const Point origin = t[0];
  auto meters = [&](const Point& p) { return MetersFromOrigin(origin, p); };
  for (Index i = 0; i < t.size(); ++i) {
    const Point p = meters(t[i]);
    double best = std::numeric_limits<double>::infinity();
    for (Index k = 0; k + 1 < s.size(); ++k) {
      const Point a = meters(s[k]);
      const Point b = meters(s[k + 1]);
      const double abx = b.x - a.x;
      const double aby = b.y - a.y;
      const double len_sq = abx * abx + aby * aby;
      double f = len_sq > 0.0
                     ? std::clamp(((p.x - a.x) * abx + (p.y - a.y) * aby) /
                                      len_sq,
                                  0.0, 1.0)
                     : 0.0;
      const double dx = p.x - (a.x + f * abx);
      const double dy = p.y - (a.y + f * aby);
      best = std::min(best, std::sqrt(dx * dx + dy * dy));
    }
    EXPECT_LE(best, tolerance + 1e-6) << "point " << i;
  }
}

TEST(SimplifyTest, ZeroToleranceDropsOnlyCollinearPoints) {
  Trajectory t;
  // Three collinear + one off-line point.
  t.Append(LatLon(40.0, 116.0), 0);
  t.Append(LatLon(40.0, 116.001), 1);
  t.Append(LatLon(40.0, 116.002), 2);
  t.Append(LatLon(40.001, 116.003), 3);
  const Trajectory s = SimplifyDouglasPeucker(t, 0.0).value();
  // The interior collinear point may go; the off-line bend must stay.
  ASSERT_GE(s.size(), 3);
  EXPECT_EQ(s[s.size() - 1], t[3]);
}

TEST(SimplifyTest, TwoPointInputIsUnchanged) {
  Trajectory t({LatLon(1, 2), LatLon(3, 4)});
  const Trajectory s = SimplifyDouglasPeucker(t, 100.0).value();
  EXPECT_EQ(s.size(), 2);
}

// ------------------------------------------------- cached haversine

TEST(CachedHaversineTest, BitIdenticalToFreshEvaluation) {
  DatasetOptions d;
  d.length = 60;
  const Trajectory s = MakeDataset(DatasetKind::kBaboonLike, d).value();
  const OnTheFlyDistance cached(s, Haversine());
  for (Index i = 0; i < s.size(); ++i) {
    for (Index j = 0; j < s.size(); ++j) {
      // Bit-for-bit, not approximately: GreatCircleDistanceMeters is
      // defined as the same two-step computation.
      EXPECT_EQ(cached.Distance(i, j),
                GreatCircleDistanceMeters(s[i], s[j]));
    }
  }
  EXPECT_EQ(RowSpanMismatches(cached), 0);
}

TEST(CachedHaversineTest, CrossFormUsesBothTrajectories) {
  DatasetOptions d;
  d.length = 20;
  const Trajectory a = MakeDataset(DatasetKind::kGeoLifeLike, d).value();
  d.seed = 43;
  const Trajectory b = MakeDataset(DatasetKind::kGeoLifeLike, d).value();
  const OnTheFlyDistance cached(a, b, Haversine());
  EXPECT_EQ(cached.rows(), 20);
  EXPECT_EQ(cached.cols(), 20);
  EXPECT_EQ(cached.Distance(3, 7), GreatCircleDistanceMeters(a[3], b[7]));
  EXPECT_GT(cached.MemoryBytes(), 0u);
  EXPECT_EQ(RowSpanMismatches(cached), 0);
}

}  // namespace
}  // namespace frechet_motif
