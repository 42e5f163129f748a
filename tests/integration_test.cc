#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/planted.h"
#include "geo/metric.h"
#include "motif/motif.h"
#include "similarity/frechet.h"

namespace frechet_motif {
namespace {

constexpr MotifAlgorithm kAllAlgorithms[] = {
    MotifAlgorithm::kBruteDp, MotifAlgorithm::kBtm, MotifAlgorithm::kGtm,
    MotifAlgorithm::kGtmStar};

/// End-to-end agreement on realistic data: all four algorithms must return
/// the same motif distance on each emulated dataset.
class DatasetAgreementTest
    : public ::testing::TestWithParam<std::tuple<DatasetKind, std::uint64_t>> {
};

TEST_P(DatasetAgreementTest, AllAlgorithmsAgreeSingleTrajectory) {
  const auto [kind, seed] = GetParam();
  DatasetOptions data_options;
  data_options.length = 280;
  data_options.seed = seed;
  const Trajectory s = MakeDataset(kind, data_options).value();

  FindMotifOptions options;
  options.min_length_xi = 20;
  options.group_size_tau = 8;

  double reference = -1.0;
  for (const MotifAlgorithm algorithm : kAllAlgorithms) {
    options.algorithm = algorithm;
    StatusOr<MotifResult> r = FindMotif(s, Haversine(), options);
    ASSERT_TRUE(r.ok()) << AlgorithmName(algorithm) << ": " << r.status();
    ASSERT_TRUE(r.value().found) << AlgorithmName(algorithm);
    if (reference < 0.0) {
      reference = r.value().distance;
    } else {
      EXPECT_DOUBLE_EQ(r.value().distance, reference)
          << AlgorithmName(algorithm) << " diverged on "
          << DatasetName(kind);
    }
    // The reported pair must reproduce the reported distance.
    const Candidate c = r.value().best;
    const OnTheFlyDistance dist(s, Haversine());
    EXPECT_DOUBLE_EQ(
        DiscreteFrechetOnRange(dist, c.i, c.ie, c.j, c.je).value(),
        r.value().distance);
  }
}

TEST_P(DatasetAgreementTest, AllAlgorithmsAgreeCrossTrajectory) {
  const auto [kind, seed] = GetParam();
  DatasetOptions a_options;
  a_options.length = 180;
  a_options.seed = seed;
  DatasetOptions b_options;
  b_options.length = 200;
  b_options.seed = seed + 500;
  const Trajectory s = MakeDataset(kind, a_options).value();
  const Trajectory t = MakeDataset(kind, b_options).value();

  FindMotifOptions options;
  options.min_length_xi = 15;
  options.group_size_tau = 8;

  double reference = -1.0;
  for (const MotifAlgorithm algorithm : kAllAlgorithms) {
    options.algorithm = algorithm;
    StatusOr<MotifResult> r = FindMotif(s, t, Haversine(), options);
    ASSERT_TRUE(r.ok()) << AlgorithmName(algorithm) << ": " << r.status();
    ASSERT_TRUE(r.value().found);
    if (reference < 0.0) {
      reference = r.value().distance;
    } else {
      EXPECT_DOUBLE_EQ(r.value().distance, reference)
          << AlgorithmName(algorithm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, DatasetAgreementTest,
    ::testing::Combine(::testing::ValuesIn(kAllDatasetKinds),
                       ::testing::Values(1u, 2u)));

/// Planted-motif recovery: with a near-exact copy planted, the discovered
/// motif distance must be at most the plant's noise bound, and the
/// discovered pair must essentially overlap the planted regions.
class PlantedRecoveryTest : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(PlantedRecoveryTest, RecoversPlantedMotif) {
  DatasetOptions data_options;
  data_options.length = 260;
  data_options.seed = 77;
  const Trajectory base = MakeDataset(GetParam(), data_options).value();
  const Index xi = 25;
  const Index segment_length = xi + 10;
  const PlantedMotif planted =
      PlantMotif(base, 40, segment_length, 30, 1.0, 99).value();

  FindMotifOptions options;
  options.min_length_xi = xi;
  options.group_size_tau = 8;
  options.algorithm = MotifAlgorithm::kGtm;
  StatusOr<MotifResult> r = FindMotif(planted.trajectory, Haversine(), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r.value().found);
  // A valid candidate inside (original, copy) has DFD <= the noise bound;
  // the optimum can only be smaller.
  EXPECT_LE(r.value().distance, planted.dfd_upper_bound_m);
}

INSTANTIATE_TEST_SUITE_P(Datasets, PlantedRecoveryTest,
                         ::testing::ValuesIn(kAllDatasetKinds));

TEST(FindMotifTest, AlgorithmNamesAreStable) {
  EXPECT_EQ(AlgorithmName(MotifAlgorithm::kBruteDp), "BruteDP");
  EXPECT_EQ(AlgorithmName(MotifAlgorithm::kBtm), "BTM");
  EXPECT_EQ(AlgorithmName(MotifAlgorithm::kGtm), "GTM");
  EXPECT_EQ(AlgorithmName(MotifAlgorithm::kGtmStar), "GTM*");
}

TEST(FindMotifTest, PropagatesValidationErrors) {
  DatasetOptions data_options;
  data_options.length = 50;
  const Trajectory s =
      MakeDataset(DatasetKind::kGeoLifeLike, data_options).value();
  FindMotifOptions options;
  options.min_length_xi = 100;  // too long for n=50
  StatusOr<MotifResult> r = FindMotif(s, Haversine(), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FindMotifTest, RejectsOffGlobePointsUnderHaversine) {
  // The batch boundary runs the streaming arrival check: a point off the
  // globe under haversine fails the search instead of feeding the matrix.
  DatasetOptions data_options;
  data_options.length = 200;
  const Trajectory good =
      MakeDataset(DatasetKind::kGeoLifeLike, data_options).value();
  std::vector<Point> points = good.points();
  points[120] = LatLon(95.0, 400.0);
  const Trajectory bad(points);
  FindMotifOptions options;
  options.min_length_xi = 10;
  ASSERT_TRUE(FindMotif(good, Haversine(), options).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            FindMotif(bad, Haversine(), options).status().code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            FindMotif(good, bad, Haversine(), options).status().code());
  // Planar coordinates are unbounded.
  EXPECT_TRUE(FindMotif(bad, Euclidean(), options).ok());
}

TEST(FindMotifTest, StatsArePopulatedThroughFacade) {
  DatasetOptions data_options;
  data_options.length = 240;
  const Trajectory s =
      MakeDataset(DatasetKind::kTruckLike, data_options).value();
  FindMotifOptions options;
  options.min_length_xi = 20;
  options.algorithm = MotifAlgorithm::kGtm;
  MotifStats stats;
  ASSERT_TRUE(FindMotif(s, Haversine(), options, &stats).ok());
  EXPECT_GT(stats.total_subsets, 0);
  EXPECT_GT(stats.total_seconds(), 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(FindMotifTest, MotifPairIsNonOverlappingInTime) {
  DatasetOptions data_options;
  data_options.length = 240;
  const Trajectory s =
      MakeDataset(DatasetKind::kGeoLifeLike, data_options).value();
  FindMotifOptions options;
  options.min_length_xi = 20;
  StatusOr<MotifResult> r = FindMotif(s, Haversine(), options);
  ASSERT_TRUE(r.ok());
  const MotifResult& result = r.value();
  // Problem 1's i < ie < j < je ordering implies disjoint timestamp
  // intervals on a strictly-increasing clock.
  EXPECT_LT(s.timestamp(result.first().last),
            s.timestamp(result.second().first));
}

}  // namespace
}  // namespace frechet_motif
