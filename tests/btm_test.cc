#include "motif/btm.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/options.h"
#include "geo/metric.h"
#include "motif/brute_dp.h"
#include "motif/subset_search.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

BtmOptions MakeOptions(Index xi, MotifVariant variant, bool relaxed,
                       bool pooled, bool sort_subsets) {
  BtmOptions options;
  options.motif.min_length_xi = xi;
  options.motif.variant = variant;
  options.relaxed = relaxed;
  options.motif.threads = pooled ? 4 : 1;
  options.sort_subsets = sort_subsets;
  return options;
}

TEST(BtmTest, RejectsTooShortInput) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(8, 1);
  BtmOptions options =
      MakeOptions(3, MotifVariant::kSingleTrajectory, true, true, true);
  EXPECT_FALSE(BtmMotif(dg, options).ok());
}

/// Every configuration of BTM must return the exact BruteDP motif, on the
/// serial path and with a 4-lane verification pool.
/// Parameters: (n, xi, seed, relaxed, pooled, sort).
class BtmConfigAgreementTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::uint64_t, bool, bool, bool>> {};

TEST_P(BtmConfigAgreementTest, MatchesBruteDpSingle) {
  const auto [n, xi, seed, relaxed, pooled, sorted] = GetParam();
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  BtmOptions options = MakeOptions(xi, MotifVariant::kSingleTrajectory,
                                   relaxed, pooled, sorted);
  StatusOr<MotifResult> got = BtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got.value().found);
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
      << "n=" << n << " xi=" << xi << " seed=" << seed
      << " relaxed=" << relaxed << " pooled=" << pooled
      << " sorted=" << sorted;
  EXPECT_EQ(got.value().best, expect.value().best);
}

TEST_P(BtmConfigAgreementTest, MatchesBruteDpCross) {
  const auto [n, xi, seed, relaxed, pooled, sorted] = GetParam();
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n + 5, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  motif.variant = MotifVariant::kCrossTrajectory;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  BtmOptions options = MakeOptions(xi, MotifVariant::kCrossTrajectory,
                                   relaxed, pooled, sorted);
  StatusOr<MotifResult> got = BtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance);
  EXPECT_EQ(got.value().best, expect.value().best);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, BtmConfigAgreementTest,
    ::testing::Combine(::testing::Values(24, 40), ::testing::Values(2, 4),
                       ::testing::Values(11u, 22u, 33u),
                       ::testing::Bool(),   // relaxed vs tight
                       ::testing::Bool(),   // serial vs 4-lane pool
                       ::testing::Bool())); // sorted vs scan order

/// Ablations of the bound set (Figure 16's combinations) must not change
/// the answer.
class BtmBoundSetTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(BtmBoundSetTest, BoundSubsetsAreExact) {
  const auto [cell, cross, band] = GetParam();
  const DistanceMatrix dg = MakeRandomSelfMatrix(40, 77);
  MotifOptions motif;
  motif.min_length_xi = 3;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  BtmOptions options;
  options.motif = motif;
  options.use_cell = cell;
  options.use_cross = cross;
  options.use_band = band;
  StatusOr<MotifResult> got = BtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
      << "cell=" << cell << " cross=" << cross << " band=" << band;
}

INSTANTIATE_TEST_SUITE_P(AllBoundSets, BtmBoundSetTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(BtmTest, AgreesWithBruteDpOnEuclideanWalks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Trajectory s = MakePlanarWalk(60, seed);
    MotifOptions motif;
    motif.min_length_xi = 5;
    StatusOr<MotifResult> expect = BruteDpMotif(s, Euclidean(), motif);
    BtmOptions options;
    options.motif = motif;
    StatusOr<MotifResult> got = BtmMotif(s, Euclidean(), options);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
        << "seed=" << seed;
  }
}

TEST(BtmTest, PrunesAggressivelyOnStructuredInput) {
  // A planar walk has spatial structure, so BTM should evaluate far fewer
  // subsets than the total.
  const Trajectory s = MakePlanarWalk(120, 4);
  BtmOptions options;
  options.motif.min_length_xi = 10;
  MotifStats stats;
  ASSERT_TRUE(BtmMotif(s, Euclidean(), options, &stats).ok());
  EXPECT_GT(stats.total_subsets, 0);
  EXPECT_LT(stats.subsets_evaluated, stats.total_subsets / 2)
      << "expected >50% of subsets pruned on structured input";
}

TEST(BtmTest, BreakdownClassifiesEverySubset) {
  const Trajectory s = MakePlanarWalk(100, 9);
  BtmOptions options;
  options.motif.min_length_xi = 8;
  options.collect_breakdown = true;
  MotifStats stats;
  ASSERT_TRUE(BtmMotif(s, Euclidean(), options, &stats).ok());
  // Classified prunes + subsets whose bounds pass (the "DFD" class) must
  // cover everything; the DFD class equals total - pruned.
  EXPECT_LE(stats.pruned_total(), stats.total_subsets);
  EXPECT_GE(stats.pruned_total(), 0);
  EXPECT_GT(stats.pruning_ratio(), 0.0);
}

TEST(BtmTest, TightBoundsPruneAtLeastAsManyAsRelaxed) {
  const Trajectory s = MakePlanarWalk(90, 12);
  MotifStats tight_stats;
  MotifStats relaxed_stats;
  BtmOptions tight;
  tight.motif.min_length_xi = 6;
  tight.relaxed = false;
  tight.collect_breakdown = true;
  BtmOptions relaxed = tight;
  relaxed.relaxed = true;
  ASSERT_TRUE(BtmMotif(s, Euclidean(), tight, &tight_stats).ok());
  ASSERT_TRUE(BtmMotif(s, Euclidean(), relaxed, &relaxed_stats).ok());
  EXPECT_GE(tight_stats.pruned_total(), relaxed_stats.pruned_total());
}

/// (1+ε)-approximate mode: result within factor, never better than exact,
/// and ε=0 degenerates to the exact search.
class BtmApproxTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t, bool>> {
};

TEST_P(BtmApproxTest, WithinFactorOfExact) {
  const auto [epsilon, seed, relaxed] = GetParam();
  const Trajectory s = MakePlanarWalk(100, seed);
  MotifOptions motif;
  motif.min_length_xi = 8;
  StatusOr<MotifResult> exact = BruteDpMotif(s, Euclidean(), motif);
  ASSERT_TRUE(exact.ok());
  BtmOptions options;
  options.motif = motif;
  options.relaxed = relaxed;
  options.approximation_epsilon = epsilon;
  StatusOr<MotifResult> approx = BtmMotif(s, Euclidean(), options);
  ASSERT_TRUE(approx.ok()) << approx.status();
  ASSERT_TRUE(approx.value().found);
  EXPECT_GE(approx.value().distance, exact.value().distance - 1e-12);
  EXPECT_LE(approx.value().distance,
            (1.0 + epsilon) * exact.value().distance + 1e-9)
      << "epsilon=" << epsilon << " seed=" << seed;
  if (epsilon == 0.0) {
    EXPECT_DOUBLE_EQ(approx.value().distance, exact.value().distance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonSweep, BtmApproxTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 2.0),
                       ::testing::Values(3u, 4u, 5u, 6u),
                       ::testing::Bool()));

TEST(BtmApproxTest, LargerEpsilonEvaluatesNoMoreSubsets) {
  const Trajectory s = MakePlanarWalk(150, 9);
  MotifOptions motif;
  motif.min_length_xi = 12;
  std::int64_t prev_evaluated = std::numeric_limits<std::int64_t>::max();
  for (const double epsilon : {0.0, 0.25, 1.0}) {
    BtmOptions options;
    options.motif = motif;
    options.approximation_epsilon = epsilon;
    MotifStats stats;
    ASSERT_TRUE(BtmMotif(s, Euclidean(), options, &stats).ok());
    EXPECT_LE(stats.subsets_evaluated, prev_evaluated)
        << "epsilon=" << epsilon;
    prev_evaluated = stats.subsets_evaluated;
  }
}

TEST(BtmTest, StatsTotalsAreConsistent) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 21);
  BtmOptions options;
  options.motif.min_length_xi = 2;
  options.collect_breakdown = true;
  MotifStats stats;
  ASSERT_TRUE(BtmMotif(dg, options, &stats).ok());
  EXPECT_EQ(stats.total_subsets, CountValidSubsets(options.motif, 30, 30));
  EXPECT_LE(stats.subsets_evaluated, stats.total_subsets);
}

}  // namespace
}  // namespace frechet_motif
