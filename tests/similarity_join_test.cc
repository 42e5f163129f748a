#include "join/similarity_join.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "data/datasets.h"
#include "geo/metric.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;

std::vector<Trajectory> MakeCollection(Index count, Index length,
                                       std::uint64_t seed) {
  std::vector<Trajectory> out;
  for (Index k = 0; k < count; ++k) {
    out.push_back(MakePlanarWalk(length, seed + k));
  }
  return out;
}

/// Oracle: exact all-pairs DFD comparison.
std::set<std::pair<std::size_t, std::size_t>> NaiveJoin(
    const std::vector<Trajectory>& left, const std::vector<Trajectory>& right,
    const GroundMetric& metric, double threshold) {
  std::set<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t li = 0; li < left.size(); ++li) {
    for (std::size_t ri = 0; ri < right.size(); ++ri) {
      if (DiscreteFrechet(left[li], right[ri], metric).value() <= threshold) {
        out.insert({li, ri});
      }
    }
  }
  return out;
}

TEST(SimilarityJoinTest, RejectsBadInputs) {
  const std::vector<Trajectory> some = MakeCollection(2, 10, 1);
  JoinOptions options;
  // A threshold must be finite and non-negative, with or without the
  // grid: NaN would match nothing and +inf everything (or, through the
  // grid's margin arithmetic, nothing).
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const bool grid : {false, true}) {
      options.threshold = bad;
      options.use_grid_index = grid;
      EXPECT_EQ(StatusCode::kInvalidArgument,
                DfdSimilarityJoin(some, some, Euclidean(), options)
                    .status()
                    .code())
          << bad << (grid ? " with grid" : "");
      EXPECT_EQ(StatusCode::kInvalidArgument,
                DfdSelfJoin(some, Euclidean(), options).status().code())
          << bad;
    }
  }
  options.threshold = 10.0;
  EXPECT_FALSE(DfdSimilarityJoin({}, some, Euclidean(), options).ok());
  std::vector<Trajectory> with_empty = some;
  with_empty.emplace_back();
  EXPECT_FALSE(
      DfdSimilarityJoin(some, with_empty, Euclidean(), options).ok());

  // Every point passes ValidateArrival before any distance, on either
  // side and with or without the grid: a position off the globe under
  // haversine, and a NaN coordinate under any metric.
  const Trajectory on_globe({LatLon(39.90, 116.30), LatLon(39.91, 116.31)});
  const Trajectory off_globe({LatLon(39.90, 116.30), LatLon(95.0, 116.32)});
  std::vector<Point> points = some[0].points();
  points[3].x = std::numeric_limits<double>::quiet_NaN();
  const Trajectory with_nan(points);
  for (const bool grid : {false, true}) {
    options.use_grid_index = grid;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              DfdSimilarityJoin({off_globe}, {on_globe}, Haversine(), options)
                  .status()
                  .code())
        << grid;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              DfdSimilarityJoin({on_globe}, {off_globe}, Haversine(), options)
                  .status()
                  .code())
        << grid;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              DfdSelfJoin({on_globe, off_globe}, Haversine(), options)
                  .status()
                  .code())
        << grid;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              DfdSelfJoin({some[1], with_nan}, Euclidean(), options)
                  .status()
                  .code())
        << grid;
  }
}

class JoinAgreementTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t, bool>> {
};

TEST_P(JoinAgreementTest, MatchesNaiveAllPairs) {
  const auto [threshold, seed, pruning] = GetParam();
  const std::vector<Trajectory> left = MakeCollection(8, 30, seed);
  const std::vector<Trajectory> right = MakeCollection(9, 26, seed + 100);
  JoinOptions options;
  options.threshold = threshold;
  options.use_pruning = pruning;
  JoinStats stats;
  StatusOr<std::vector<JoinPair>> got =
      DfdSimilarityJoin(left, right, Euclidean(), options, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  std::set<std::pair<std::size_t, std::size_t>> got_set;
  for (const JoinPair& p : got.value()) got_set.insert({p.li, p.ri});
  EXPECT_EQ(got_set, NaiveJoin(left, right, Euclidean(), threshold))
      << "threshold=" << threshold << " seed=" << seed
      << " pruning=" << pruning;
  EXPECT_EQ(stats.pairs_total, 72);
  EXPECT_EQ(stats.matched, static_cast<std::int64_t>(got_set.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, JoinAgreementTest,
    ::testing::Combine(::testing::Values(20.0, 60.0, 150.0, 400.0),
                       ::testing::Values(5u, 6u), ::testing::Bool()));

TEST(SimilarityJoinTest, HaversineBoundsAreSafe) {
  // Same agreement check under the geographic metric, exercising the
  // haversine bbox bound.
  std::vector<Trajectory> collection;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DatasetOptions d;
    d.length = 40;
    d.seed = seed;
    collection.push_back(
        MakeDataset(DatasetKind::kGeoLifeLike, d).value());
  }
  for (const double threshold : {50.0, 300.0, 1500.0}) {
    JoinOptions options;
    options.threshold = threshold;
    StatusOr<std::vector<JoinPair>> pruned =
        DfdSelfJoin(collection, Haversine(), options);
    options.use_pruning = false;
    StatusOr<std::vector<JoinPair>> plain =
        DfdSelfJoin(collection, Haversine(), options);
    ASSERT_TRUE(pruned.ok());
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(pruned.value(), plain.value()) << "threshold=" << threshold;
  }
}

TEST(SimilarityJoinTest, SelfJoinReportsUnorderedPairsOnce) {
  const std::vector<Trajectory> collection = MakeCollection(6, 20, 9);
  JoinOptions options;
  options.threshold = 1e9;  // everything matches
  JoinStats stats;
  StatusOr<std::vector<JoinPair>> got =
      DfdSelfJoin(collection, Euclidean(), options, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 15u);  // C(6,2)
  EXPECT_EQ(stats.pairs_total, 15);
  for (const JoinPair& p : got.value()) EXPECT_LT(p.li, p.ri);
}

TEST(SimilarityJoinTest, StatsPartitionThePairs) {
  const std::vector<Trajectory> left = MakeCollection(10, 24, 21);
  const std::vector<Trajectory> right = MakeCollection(10, 24, 777);
  JoinOptions options;
  options.threshold = 40.0;
  JoinStats stats;
  ASSERT_TRUE(
      DfdSimilarityJoin(left, right, Euclidean(), options, &stats).ok());
  EXPECT_EQ(stats.pairs_total,
            stats.pruned_bbox + stats.pruned_endpoints +
                stats.pruned_hausdorff + stats.decided_exact);
  EXPECT_LE(stats.matched, stats.decided_exact);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(SimilarityJoinTest, PruningActuallyPrunesFarApartInputs) {
  // Two clusters far apart: the bbox stage must resolve all cross pairs.
  std::vector<Trajectory> left;
  std::vector<Trajectory> right;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    left.push_back(MakePlanarWalk(20, seed));
    Trajectory far = MakePlanarWalk(20, seed + 50);
    std::vector<Point> moved;
    for (Index i = 0; i < far.size(); ++i) {
      moved.emplace_back(far[i].x + 1e6, far[i].y);
    }
    right.push_back(Trajectory(std::move(moved)));
  }
  JoinOptions options;
  options.threshold = 100.0;
  JoinStats stats;
  StatusOr<std::vector<JoinPair>> got =
      DfdSimilarityJoin(left, right, Euclidean(), options, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  EXPECT_EQ(stats.pruned_bbox, 25);
  EXPECT_EQ(stats.decided_exact, 0);
}

// ---------------------------------------------------- decision kernel

TEST(FrechetAtMostTest, AgreesWithExactValue) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Trajectory a = MakePlanarWalk(25, seed);
    const Trajectory b = MakePlanarWalk(30, seed + 40);
    const double exact = DiscreteFrechet(a, b, Euclidean()).value();
    EXPECT_TRUE(
        DiscreteFrechetAtMost(a, b, Euclidean(), exact).value());
    EXPECT_TRUE(
        DiscreteFrechetAtMost(a, b, Euclidean(), exact * 1.5).value());
    EXPECT_FALSE(
        DiscreteFrechetAtMost(a, b, Euclidean(), exact * 0.99).value());
  }
}

TEST(FrechetAtMostTest, NegativeThresholdIsFalse) {
  const Trajectory a = MakePlanarWalk(5, 1);
  EXPECT_FALSE(DiscreteFrechetAtMost(a, a, Euclidean(), -1.0).value());
}

TEST(FrechetAtMostTest, RejectsEmpty) {
  const Trajectory empty;
  const Trajectory one = MakePlanarWalk(3, 2);
  EXPECT_FALSE(DiscreteFrechetAtMost(empty, one, Euclidean(), 1.0).ok());
}

}  // namespace
}  // namespace frechet_motif
