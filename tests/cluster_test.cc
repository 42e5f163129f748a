#include "cluster/subtrajectory_cluster.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/datasets.h"
#include "data/generator.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "similarity/frechet.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

/// A trajectory that repeats one leg `repeats` times (with small noise)
/// separated by far-away excursions — a ground-truth cluster.
Trajectory RepeatedLegTrace(int repeats, Index leg_points, double noise_m,
                            std::uint64_t seed) {
  Rng rng(seed);
  const Point origin = LatLon(40.0, 116.0);
  Trajectory t;
  double clock = 0.0;
  for (int r = 0; r < repeats; ++r) {
    // The repeated leg: straight 10 m/sample east at y=0.
    for (Index k = 0; k < leg_points; ++k) {
      t.Append(OffsetByMeters(origin, 10.0 * k + rng.NextGaussian(0, noise_m),
                              rng.NextGaussian(0, noise_m)),
               clock);
      clock += 1.0;
    }
    // Excursion: far away so it cannot match the leg.
    for (Index k = 0; k < leg_points; ++k) {
      t.Append(OffsetByMeters(origin, 10.0 * k, 5000.0 + 200.0 * r +
                                                    rng.NextGaussian(0, noise_m)),
               clock);
      clock += 1.0;
    }
  }
  return t;
}

ClusterOptions SmallOptions(Index window, Index stride, double theta) {
  ClusterOptions o;
  o.window_length = window;
  o.stride = stride;
  o.threshold_m = theta;
  return o;
}

TEST(ClusterTest, RejectsBadOptions) {
  const Trajectory t = RepeatedLegTrace(2, 40, 1.0, 1);
  EXPECT_FALSE(
      BestSubtrajectoryCluster(t, Haversine(), SmallOptions(1, 5, 50)).ok());
  EXPECT_FALSE(
      BestSubtrajectoryCluster(t, Haversine(), SmallOptions(40, 0, 50)).ok());
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(StatusCode::kInvalidArgument,
              BestSubtrajectoryCluster(t, Haversine(), SmallOptions(40, 5, bad))
                  .status()
                  .code())
        << bad;
  }
  ClusterOptions single = SmallOptions(40, 5, 50);
  single.min_members = 1;
  EXPECT_FALSE(BestSubtrajectoryCluster(t, Haversine(), single).ok());

  // A point off the globe (lat 95) fails ValidateArrival before any DP.
  std::vector<Point> points = t.points();
  points[20] = LatLon(95.0, 116.32);
  const Trajectory off_globe(points);
  EXPECT_EQ(StatusCode::kInvalidArgument,
            BestSubtrajectoryCluster(off_globe, Haversine(),
                                     SmallOptions(40, 5, 50))
                .status()
                .code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            ClusterSubtrajectories(off_globe, Haversine(),
                                   SmallOptions(40, 5, 50))
                .status()
                .code());
}

TEST(ClusterTest, FindsThePlantedRepeats) {
  const int repeats = 4;
  const Index leg = 40;
  const Trajectory t = RepeatedLegTrace(repeats, leg, 1.5, 7);
  const StatusOr<SubtrajectoryCluster> cluster = BestSubtrajectoryCluster(
      t, Haversine(), SmallOptions(leg, leg / 4, 25.0));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  // All four repetitions of the leg should be recovered.
  EXPECT_GE(cluster.value().size(), repeats);
}

TEST(ClusterTest, MembersAreWithinThresholdOfReference) {
  const Trajectory t = RepeatedLegTrace(3, 40, 2.0, 9);
  const ClusterOptions options = SmallOptions(40, 10, 30.0);
  const StatusOr<SubtrajectoryCluster> cluster =
      BestSubtrajectoryCluster(t, Haversine(), options);
  ASSERT_TRUE(cluster.ok());
  const SubtrajectoryRef ref = cluster.value().reference;
  const Trajectory ref_window = t.Slice(ref.first, ref.last);
  for (const SubtrajectoryRef& member : cluster.value().members) {
    const Trajectory window = t.Slice(member.first, member.last);
    const double dfd =
        DiscreteFrechet(ref_window, window, Haversine()).value();
    EXPECT_LE(dfd, options.threshold_m + 1e-9)
        << "member [" << member.first << "," << member.last << "]";
  }
}

TEST(ClusterTest, MembersDoNotOverlap) {
  const Trajectory t = RepeatedLegTrace(4, 32, 1.0, 11);
  const StatusOr<SubtrajectoryCluster> cluster = BestSubtrajectoryCluster(
      t, Haversine(), SmallOptions(32, 8, 20.0));
  ASSERT_TRUE(cluster.ok());
  const auto& members = cluster.value().members;
  for (std::size_t a = 0; a + 1 < members.size(); ++a) {
    EXPECT_LT(members[a].last, members[a + 1].first);
  }
}

TEST(ClusterTest, NotFoundWhenNothingRepeats) {
  // A single diagonal line: windows drift apart monotonically, so with a
  // tiny threshold nothing clusters.
  Trajectory t;
  const Point origin = LatLon(40.0, 116.0);
  for (Index k = 0; k < 200; ++k) {
    t.Append(OffsetByMeters(origin, 25.0 * k, 25.0 * k),
             static_cast<double>(k));
  }
  const StatusOr<SubtrajectoryCluster> cluster = BestSubtrajectoryCluster(
      t, Haversine(), SmallOptions(40, 10, 5.0));
  EXPECT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.status().code(), StatusCode::kNotFound);
}

TEST(ClusterTest, GreedyCoverProducesDisjointClusters) {
  DatasetOptions d;
  d.length = 800;
  d.seed = 5;
  const Trajectory t = MakeDataset(DatasetKind::kTruckLike, d).value();
  ClusterOptions options = SmallOptions(60, 20, 400.0);
  ClusterStats stats;
  const StatusOr<std::vector<SubtrajectoryCluster>> clusters =
      ClusterSubtrajectories(t, Haversine(), options, &stats);
  ASSERT_TRUE(clusters.ok());
  // Pairwise disjoint across clusters.
  std::vector<SubtrajectoryRef> all;
  for (const SubtrajectoryCluster& c : clusters.value()) {
    EXPECT_GE(c.size(), options.min_members);
    for (const SubtrajectoryRef& m : c.members) all.push_back(m);
  }
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = a + 1; b < all.size(); ++b) {
      const bool overlap =
          all[a].first <= all[b].last && all[b].first <= all[a].last;
      EXPECT_FALSE(overlap) << "windows " << a << " and " << b;
    }
  }
  EXPECT_GT(stats.window_pairs, 0);
  EXPECT_EQ(stats.window_pairs,
            stats.pruned_endpoints + stats.decided_exact);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(ClusterTest, StatsPruningWorksOnSpreadOutData) {
  const Trajectory t = RepeatedLegTrace(3, 40, 1.0, 13);
  ClusterStats stats;
  ASSERT_TRUE(BestSubtrajectoryCluster(t, Haversine(),
                                       SmallOptions(40, 10, 20.0), &stats)
                  .ok());
  // The far-away excursions must mostly die at the endpoint bound.
  EXPECT_GT(stats.pruned_endpoints, stats.decided_exact);
}

}  // namespace
}  // namespace frechet_motif
