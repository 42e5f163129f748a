#include "motif/gtm_star.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/options.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/brute_dp.h"
#include "motif/gtm.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

TEST(GtmStarTest, RejectsBadTau) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 1);
  GtmStarOptions options;
  options.motif.min_length_xi = 2;
  options.group_size_tau = -3;
  EXPECT_FALSE(GtmStarMotif(dg, options).ok());
}

/// GTM* must return the exact BruteDP distance for every τ.
class GtmStarAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, std::uint64_t>> {
};

TEST_P(GtmStarAgreementTest, MatchesBruteDpSingle) {
  const auto [n, xi, tau, seed] = GetParam();
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  GtmStarOptions options;
  options.motif = motif;
  options.group_size_tau = tau;
  StatusOr<MotifResult> got = GtmStarMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got.value().found);
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
      << "n=" << n << " xi=" << xi << " tau=" << tau << " seed=" << seed;
}

TEST_P(GtmStarAgreementTest, MatchesBruteDpCross) {
  const auto [n, xi, tau, seed] = GetParam();
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n + 4, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  motif.variant = MotifVariant::kCrossTrajectory;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  GtmStarOptions options;
  options.motif = motif;
  options.group_size_tau = tau;
  StatusOr<MotifResult> got = GtmStarMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance);
}

INSTANTIATE_TEST_SUITE_P(
    TauSweep, GtmStarAgreementTest,
    ::testing::Combine(::testing::Values(32, 48), ::testing::Values(2, 5),
                       ::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(5u, 9u)));

TEST(GtmStarTest, OnTheFlyPathMatchesMatrixPath) {
  // The trajectory overload builds no dG matrix; over {haversine,
  // Euclidean} x {single, cross} it must return GTM*'s matrix-path answer
  // bit for bit, with every effort counter equal.
  DatasetOptions data;
  data.length = 80;
  const Trajectory geo_s = MakeDataset(DatasetKind::kGeoLifeLike, data).value();
  data.length = 70;
  data.seed = 43;
  const Trajectory geo_t = MakeDataset(DatasetKind::kGeoLifeLike, data).value();
  const Trajectory walk_s = MakePlanarWalk(80, 2);
  const Trajectory walk_t = MakePlanarWalk(70, 3);
  struct Input {
    const char* name;
    const GroundMetric& metric;
    const Trajectory& s;
    const Trajectory& t;
  };
  for (const Input& in : {Input{"haversine", Haversine(), geo_s, geo_t},
                          Input{"euclidean", Euclidean(), walk_s, walk_t}}) {
    for (const bool cross : {false, true}) {
      SCOPED_TRACE(std::string(in.name) + (cross ? " cross" : " single"));
      GtmStarOptions star;
      star.motif.min_length_xi = 6;
      star.motif.variant = cross ? MotifVariant::kCrossTrajectory
                                 : MotifVariant::kSingleTrajectory;
      star.group_size_tau = 8;
      MotifStats fly_stats;
      MotifStats matrix_stats;
      const StatusOr<MotifResult> fly =
          cross ? GtmStarMotif(in.s, in.t, in.metric, star, &fly_stats)
                : GtmStarMotif(in.s, in.metric, star, &fly_stats);
      const DistanceMatrix dg =
          (cross ? DistanceMatrix::Build(in.s, in.t, in.metric)
                 : DistanceMatrix::Build(in.s, in.metric))
              .value();
      const StatusOr<MotifResult> matrix =
          GtmStarMotif(dg, star, &matrix_stats);
      ASSERT_TRUE(fly.ok()) << fly.status();
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      ASSERT_TRUE(matrix.value().found);
      EXPECT_EQ(fly.value().found, matrix.value().found);
      EXPECT_EQ(fly.value().best, matrix.value().best);
      EXPECT_EQ(fly.value().distance, matrix.value().distance);
      // Every counter; memory and timings legitimately differ.
      EXPECT_EQ(fly_stats.total_subsets, matrix_stats.total_subsets);
      EXPECT_EQ(fly_stats.pruned_by_cell, matrix_stats.pruned_by_cell);
      EXPECT_EQ(fly_stats.pruned_by_cross, matrix_stats.pruned_by_cross);
      EXPECT_EQ(fly_stats.pruned_by_band, matrix_stats.pruned_by_band);
      EXPECT_EQ(fly_stats.subsets_evaluated, matrix_stats.subsets_evaluated);
      EXPECT_EQ(fly_stats.dfd_cells_computed,
                matrix_stats.dfd_cells_computed);
      EXPECT_EQ(fly_stats.bsf_updates, matrix_stats.bsf_updates);
      EXPECT_EQ(fly_stats.group_pairs_total, matrix_stats.group_pairs_total);
      EXPECT_EQ(fly_stats.group_pairs_pruned_pattern,
                matrix_stats.group_pairs_pruned_pattern);
      EXPECT_EQ(fly_stats.group_pairs_pruned_dfd_bound,
                matrix_stats.group_pairs_pruned_dfd_bound);
      EXPECT_EQ(fly_stats.gub_tightenings, matrix_stats.gub_tightenings);
    }
  }
}

TEST(GtmStarTest, UsesLessPeakMemoryThanGtm) {
  const Trajectory s = MakePlanarWalk(300, 6);
  MotifOptions motif;
  motif.min_length_xi = 20;
  GtmOptions gtm;
  gtm.motif = motif;
  gtm.group_size_tau = 16;
  GtmStarOptions star;
  star.motif = motif;
  star.group_size_tau = 16;
  MotifStats gtm_stats;
  MotifStats star_stats;
  ASSERT_TRUE(GtmMotif(s, Euclidean(), gtm, &gtm_stats).ok());
  ASSERT_TRUE(GtmStarMotif(s, Euclidean(), star, &star_stats).ok());
  // GTM holds the full n^2 dG matrix; GTM* must stay well below that.
  EXPECT_LT(star_stats.memory.peak_bytes(), gtm_stats.memory.peak_bytes() / 4);
}

TEST(GtmStarTest, TrajectoryOverloadsValidatePoints) {
  // The trajectory overloads read points through an on-the-fly provider,
  // never DistanceMatrix::Build, so they run the same ValidateArrival
  // check themselves: off the globe under haversine, NaN under any metric.
  std::vector<Point> points;
  for (int k = 0; k < 30; ++k) {
    points.push_back(LatLon(39.90 + 0.001 * k, 116.30 + 0.001 * (k % 7)));
  }
  const Trajectory good(points);
  points[12] = LatLon(95.0, 116.32);
  const Trajectory off_globe(points);
  points[12].x = std::numeric_limits<double>::quiet_NaN();
  const Trajectory with_nan(points);
  GtmStarOptions star;
  star.motif.min_length_xi = 3;
  star.group_size_tau = 4;
  ASSERT_TRUE(GtmStarMotif(good, Haversine(), star).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            GtmStarMotif(off_globe, Haversine(), star).status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            GtmStarMotif(with_nan, Euclidean(), star).status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            GtmStarMotif(good, off_globe, Haversine(), star).status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            GtmStarMotif(off_globe, good, Haversine(), star).status().code());
}

TEST(GtmStarTest, CrossTrajectoryOverloadIsExact) {
  const Trajectory s = MakePlanarWalk(40, 3);
  const Trajectory t = MakePlanarWalk(44, 4);
  MotifOptions motif;
  motif.min_length_xi = 4;
  motif.variant = MotifVariant::kCrossTrajectory;
  StatusOr<MotifResult> expect = BruteDpMotif(s, t, Euclidean(), motif);
  GtmStarOptions star;
  star.motif = motif;
  star.group_size_tau = 4;
  StatusOr<MotifResult> got = GtmStarMotif(s, t, Euclidean(), star);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance);
}

}  // namespace
}  // namespace frechet_motif
