#include "motif/gtm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/options.h"
#include "geo/metric.h"
#include "motif/brute_dp.h"
#include "motif/group.h"
#include "motif/relaxed_bounds.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

TEST(GtmTest, RejectsBadTau) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 1);
  GtmOptions options;
  options.motif.min_length_xi = 2;
  options.group_size_tau = 0;
  EXPECT_FALSE(GtmMotif(dg, options).ok());
}

TEST(GtmTest, RejectsTooShortInput) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(9, 1);
  GtmOptions options;
  options.motif.min_length_xi = 4;
  EXPECT_FALSE(GtmMotif(dg, options).ok());
}

/// GTM must return the exact BruteDP distance for every τ, including τ=1
/// (degenerate BTM), non-powers of two, and τ larger than ξ.
class GtmAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, std::uint64_t>> {
};

TEST_P(GtmAgreementTest, MatchesBruteDpSingle) {
  const auto [n, xi, tau, seed] = GetParam();
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  GtmOptions options;
  options.motif = motif;
  options.group_size_tau = tau;
  StatusOr<MotifResult> got = GtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got.value().found);
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
      << "n=" << n << " xi=" << xi << " tau=" << tau << " seed=" << seed;
}

TEST_P(GtmAgreementTest, MatchesBruteDpCross) {
  const auto [n, xi, tau, seed] = GetParam();
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n + 7, seed);
  MotifOptions motif;
  motif.min_length_xi = xi;
  motif.variant = MotifVariant::kCrossTrajectory;
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  GtmOptions options;
  options.motif = motif;
  options.group_size_tau = tau;
  StatusOr<MotifResult> got = GtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance);
}

INSTANTIATE_TEST_SUITE_P(
    TauSweep, GtmAgreementTest,
    ::testing::Combine(::testing::Values(32, 48), ::testing::Values(2, 5),
                       ::testing::Values(1, 2, 3, 4, 8, 16),
                       ::testing::Values(5u, 6u)));

TEST(GtmTest, AgreesWithBruteDpOnEuclideanWalks) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Trajectory s = MakePlanarWalk(80, seed);
    MotifOptions motif;
    motif.min_length_xi = 6;
    StatusOr<MotifResult> expect = BruteDpMotif(s, Euclidean(), motif);
    GtmOptions options;
    options.motif = motif;
    options.group_size_tau = 8;
    StatusOr<MotifResult> got = GtmMotif(s, Euclidean(), options);
    ASSERT_TRUE(expect.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance)
        << "seed=" << seed;
  }
}

TEST(GtmTest, TauLargerThanTrajectoryStillExact) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(24, 13);
  MotifOptions motif;
  motif.min_length_xi = 2;
  GtmOptions options;
  options.motif = motif;
  options.group_size_tau = 64;  // single group pair at the top level
  StatusOr<MotifResult> expect = BruteDpMotif(dg, motif);
  StatusOr<MotifResult> got = GtmMotif(dg, options);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got.value().distance, expect.value().distance);
}

TEST(GtmTest, GroupStatsArePopulated) {
  const Trajectory s = MakePlanarWalk(120, 3);
  GtmOptions options;
  options.motif.min_length_xi = 10;
  options.group_size_tau = 8;
  MotifStats stats;
  ASSERT_TRUE(GtmMotif(s, Euclidean(), options, &stats).ok());
  EXPECT_GT(stats.group_pairs_total, 0);
  EXPECT_GT(stats.gub_tightenings, 0);
  EXPECT_GT(stats.memory.peak_bytes(), 0u);
}

TEST(GtmTest, ResultCandidateIsValid) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(40, 17);
  GtmOptions options;
  options.motif.min_length_xi = 3;
  options.group_size_tau = 4;
  StatusOr<MotifResult> r = GtmMotif(dg, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().found);
  EXPECT_TRUE(IsValidCandidate(r.value().best, options.motif, 40, 40));
}

/// A 300-point planar walk whose points [200, 260) replay [40, 100)
/// within ±3 m. Built from uniform draws and Euclidean arithmetic only,
/// so it is the same on every platform.
Trajectory RepeatingWalk() {
  Rng rng(2027);
  std::vector<Point> points;
  double x = 0.0;
  double y = 0.0;
  for (Index i = 0; i < 300; ++i) {
    if (i >= 200 && i < 260) {
      points.emplace_back(points[i - 160].x + rng.NextDouble(-3.0, 3.0),
                          points[i - 160].y + rng.NextDouble(-3.0, 3.0));
    } else {
      points.emplace_back(x, y);
    }
    x += rng.NextDouble(-10.0, 10.0);
    y += rng.NextDouble(-10.0, 10.0);
  }
  return Trajectory(std::move(points));
}

/// One pinned GTM run: the answer and every MotifStats counter.
struct PinnedGtmRun {
  Index tau;
  std::uint64_t distance_bits;
  std::int64_t subsets_evaluated;
  std::int64_t dfd_cells_computed;
  std::int64_t bsf_updates;
  std::int64_t group_pairs_total;
  std::int64_t group_pairs_pruned_pattern;
  std::int64_t group_pairs_pruned_dfd_bound;
  std::int64_t gub_tightenings;
};

/// GTM over the halving chains of τ ∈ {1, 2, 3, 8, 32, 40} — no level,
/// one level, power-of-two chains (every coarser level folded from the
/// finest) and 40, 20, 10, 5, 2 (τ=5 built from dG) — must reproduce a
/// pinned run exactly: the candidate, the distance's bits and every
/// counter. The pins predate deriving coarse levels from the finest one,
/// so they also show that the derivation changes no search.
TEST(GtmTest, PinnedRunsAcrossTauChains) {
  const Trajectory s = RepeatingWalk();
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  const Candidate expect_best{51, 72, 211, 232};
  const PinnedGtmRun pins[] = {
      {1, 0x400e6630c8022e9aull, 66, 4154, 3, 0, 0, 0, 0},
      {2, 0x400e6630c8022e9aull, 57, 2812, 2, 8385, 7634, 581, 2},
      {3, 0x400e6630c8022e9aull, 66, 3059, 3, 3741, 2604, 716, 3},
      {8, 0x400e6630c8022e9aull, 58, 2816, 2, 2741, 1346, 648, 8},
      {32, 0x400e6630c8022e9aull, 57, 2812, 2, 2913, 1328, 652, 12},
      {40, 0x400e6630c8022e9aull, 96, 4954, 2, 3710, 2046, 814, 13},
  };
  for (const PinnedGtmRun& pin : pins) {
    GtmOptions options;
    options.motif.min_length_xi = 20;
    options.group_size_tau = pin.tau;
    MotifStats stats;
    StatusOr<MotifResult> r = GtmMotif(dg, options, &stats);
    ASSERT_TRUE(r.ok()) << r.status();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.value().distance, sizeof bits);
    EXPECT_TRUE(r.value().found) << "tau=" << pin.tau;
    EXPECT_EQ(r.value().best, expect_best) << "tau=" << pin.tau;
    EXPECT_EQ(bits, pin.distance_bits) << "tau=" << pin.tau;
    EXPECT_EQ(stats.total_subsets, 33153) << "tau=" << pin.tau;
    EXPECT_EQ(stats.pruned_by_cell, 0) << "tau=" << pin.tau;
    EXPECT_EQ(stats.pruned_by_cross, 0) << "tau=" << pin.tau;
    EXPECT_EQ(stats.pruned_by_band, 0) << "tau=" << pin.tau;
    EXPECT_EQ(stats.subsets_evaluated, pin.subsets_evaluated)
        << "tau=" << pin.tau;
    EXPECT_EQ(stats.dfd_cells_computed, pin.dfd_cells_computed)
        << "tau=" << pin.tau;
    EXPECT_EQ(stats.bsf_updates, pin.bsf_updates) << "tau=" << pin.tau;
    EXPECT_EQ(stats.group_pairs_total, pin.group_pairs_total)
        << "tau=" << pin.tau;
    EXPECT_EQ(stats.group_pairs_pruned_pattern,
              pin.group_pairs_pruned_pattern)
        << "tau=" << pin.tau;
    EXPECT_EQ(stats.group_pairs_pruned_dfd_bound,
              pin.group_pairs_pruned_dfd_bound)
        << "tau=" << pin.tau;
    EXPECT_EQ(stats.gub_tightenings, pin.gub_tightenings)
        << "tau=" << pin.tau;
  }
}

/// The finest level stays registered for the whole level loop and each
/// coarser one during its round, so the peak holds dG, the relaxed
/// bounds, the finest level and (in the τ=4 round) the τ=4 level at once.
TEST(GtmTest, PeakMemoryHoldsTheFinestLevelThroughTheLoop) {
  const Trajectory s = RepeatingWalk();
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  GtmOptions options;
  options.motif.min_length_xi = 20;
  options.group_size_tau = 32;
  MotifStats stats;
  ASSERT_TRUE(GtmMotif(dg, options, &stats).ok());
  const std::size_t relaxed =
      RelaxedBounds::Build(dg, options.motif).MemoryBytes();
  const Grouping finest = Grouping::Build(dg, options.motif, 2);
  const std::size_t base = dg.MemoryBytes() + relaxed + finest.MemoryBytes();
  EXPECT_GE(stats.memory.peak_bytes(), base);
  EXPECT_GE(stats.memory.peak_bytes(),
            base + Grouping::Coarsen(finest, 4).MemoryBytes());
  // Everything the loop registered is released with it.
  EXPECT_LT(stats.memory.current_bytes(), base);
}

}  // namespace
}  // namespace frechet_motif
