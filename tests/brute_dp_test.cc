#include "motif/brute_dp.h"

#include <gtest/gtest.h>

#include "core/options.h"
#include "geo/metric.h"
#include "motif/btm.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

TEST(BruteDpTest, RejectsTooShortInput) {
  MotifOptions options;
  options.min_length_xi = 5;
  const DistanceMatrix dg = MakeRandomSelfMatrix(10, 1);
  StatusOr<MotifResult> r = BruteDpMotif(dg, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BruteDpTest, RejectsNonPositiveXi) {
  MotifOptions options;
  options.min_length_xi = 0;
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 1);
  EXPECT_FALSE(BruteDpMotif(dg, options).ok());
}

TEST(BruteDpTest, SmallestAdmissibleInputHasExactlyOneCandidate) {
  // n = 2ξ+4 admits exactly the candidate (0, ξ+1, ξ+2, 2ξ+3).
  MotifOptions options;
  options.min_length_xi = 2;
  const Index n = 2 * options.min_length_xi + 4;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 7);
  StatusOr<MotifResult> r = BruteDpMotif(dg, options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r.value().found);
  EXPECT_EQ(r.value().best, (Candidate{0, 3, 4, 7}));
  const double expected =
      DiscreteFrechetOnRange(dg, 0, 3, 4, 7).value();
  EXPECT_DOUBLE_EQ(r.value().distance, expected);
}

TEST(BruteDpTest, ResultCandidateIsValidAndDistanceMatchesItsDfd) {
  MotifOptions options;
  options.min_length_xi = 3;
  const DistanceMatrix dg = MakeRandomSelfMatrix(36, 11);
  StatusOr<MotifResult> r = BruteDpMotif(dg, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().found);
  const Candidate c = r.value().best;
  EXPECT_TRUE(IsValidCandidate(c, options, 36, 36)) << c;
  const double exact =
      DiscreteFrechetOnRange(dg, c.i, c.ie, c.j, c.je).value();
  EXPECT_DOUBLE_EQ(r.value().distance, exact);
}

/// The central exactness check for the baseline: BruteDP must agree with
/// the code-path-independent naive oracle over many random matrices.
class BruteDpAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(BruteDpAgreementTest, MatchesNaiveOracleSingle) {
  const auto [n, xi, seed] = GetParam();
  MotifOptions options;
  options.min_length_xi = xi;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, seed);
  StatusOr<MotifResult> naive = NaiveMotif(dg, options);
  StatusOr<MotifResult> dp = BruteDpMotif(dg, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(naive.value().found);
  ASSERT_TRUE(dp.value().found);
  EXPECT_DOUBLE_EQ(dp.value().distance, naive.value().distance);
}

TEST_P(BruteDpAgreementTest, MatchesNaiveOracleCross) {
  const auto [n, xi, seed] = GetParam();
  MotifOptions options;
  options.min_length_xi = xi;
  options.variant = MotifVariant::kCrossTrajectory;
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n + 3, seed);
  StatusOr<MotifResult> naive = NaiveMotif(dg, options);
  StatusOr<MotifResult> dp = BruteDpMotif(dg, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(dp.ok());
  EXPECT_DOUBLE_EQ(dp.value().distance, naive.value().distance);
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, BruteDpAgreementTest,
    ::testing::Combine(::testing::Values(12, 16, 20), ::testing::Values(1, 2, 3),
                       ::testing::Values(101u, 202u, 303u, 404u)));

TEST(BruteDpTest, TrajectoryOverloadMatchesMatrixPath) {
  const Trajectory s = MakePlanarWalk(40, 5);
  MotifOptions options;
  options.min_length_xi = 4;
  StatusOr<MotifResult> via_traj = BruteDpMotif(s, Euclidean(), options);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  StatusOr<MotifResult> via_matrix = BruteDpMotif(dg, options);
  ASSERT_TRUE(via_traj.ok());
  ASSERT_TRUE(via_matrix.ok());
  EXPECT_DOUBLE_EQ(via_traj.value().distance, via_matrix.value().distance);
}

TEST(BruteDpTest, CrossVariantUsesBothTrajectories) {
  const Trajectory s = MakePlanarWalk(20, 8);
  const Trajectory t = MakePlanarWalk(24, 9);
  MotifOptions options;
  options.min_length_xi = 2;
  options.variant = MotifVariant::kCrossTrajectory;
  StatusOr<MotifResult> r = BruteDpMotif(s, t, Euclidean(), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().found);
  const Candidate c = r.value().best;
  EXPECT_TRUE(IsValidCandidate(c, options, s.size(), t.size()));
  // Cross variant: no ordering constraint between the two ranges.
  EXPECT_LE(c.ie, s.size() - 1);
  EXPECT_LE(c.je, t.size() - 1);
}

TEST(BruteDpTest, TwoTrajectoryOverloadSetsTheCrossVariant) {
  // Left at the default (single-trajectory) variant, the two-trajectory
  // overload must still solve the cross problem — no ie < j constraint
  // between two different trajectories — exactly as BtmMotif's does.
  MotifOptions options;
  options.min_length_xi = 2;
  BtmOptions btm;
  btm.motif = options;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Trajectory s = MakePlanarWalk(20, 2 * seed + 1);
    const Trajectory t = MakePlanarWalk(24, 2 * seed + 2);
    StatusOr<MotifResult> brute = BruteDpMotif(s, t, Euclidean(), options);
    StatusOr<MotifResult> bounded = BtmMotif(s, t, Euclidean(), btm);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(bounded.ok());
    EXPECT_EQ(brute.value().distance, bounded.value().distance)
        << "seed=" << seed;
    EXPECT_EQ(brute.value().best, bounded.value().best) << "seed=" << seed;
  }
}

TEST(BruteDpTest, StatsCountSubsetsAndCells) {
  MotifOptions options;
  options.min_length_xi = 2;
  const DistanceMatrix dg = MakeRandomSelfMatrix(20, 3);
  MotifStats stats;
  ASSERT_TRUE(BruteDpMotif(dg, options, &stats).ok());
  EXPECT_EQ(stats.total_subsets, CountValidSubsets(options, 20, 20));
  EXPECT_EQ(stats.subsets_evaluated, stats.total_subsets);
  EXPECT_GT(stats.dfd_cells_computed, 0);
  EXPECT_GT(stats.memory.peak_bytes(), 0u);
}

}  // namespace
}  // namespace frechet_motif
