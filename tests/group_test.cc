#include "motif/group.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/options.h"
#include "geo/metric.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;
using testing_util::MakeShiftedRing;
using testing_util::SameBits;

constexpr double kInf = std::numeric_limits<double>::infinity();

MotifOptions Options(Index xi, bool single) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = single ? MotifVariant::kSingleTrajectory
                     : MotifVariant::kCrossTrajectory;
  return o;
}

TEST(GroupingTest, GroupBoundariesCoverAllPoints) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(13, 1);  // 13 = 4*3+1
  const Grouping g = Grouping::Build(dg, Options(2, true), 4);
  EXPECT_EQ(g.num_row_groups(), 4);
  EXPECT_EQ(g.RowFirst(0), 0);
  EXPECT_EQ(g.RowLast(0), 3);
  EXPECT_EQ(g.RowFirst(3), 12);
  EXPECT_EQ(g.RowLast(3), 12);  // trailing partial group
}

TEST(GroupingTest, EnvelopesMatchBruteForceScan) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(22, 5);
  const Grouping g = Grouping::Build(dg, Options(2, true), 4);
  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      double lo = kInf;
      double hi = -kInf;
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          lo = std::min(lo, dg.Distance(i, j));
          hi = std::max(hi, dg.Distance(i, j));
        }
      }
      EXPECT_DOUBLE_EQ(g.Dmin(u, v), lo);
      EXPECT_DOUBLE_EQ(g.Dmax(u, v), hi);
    }
  }
}

TEST(GroupingTest, CorollaryOneSandwich) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(20, 9);
  const Grouping g = Grouping::Build(dg, Options(2, true), 5);
  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          EXPECT_LE(g.Dmin(u, v), dg.Distance(i, j));
          EXPECT_GE(g.Dmax(u, v), dg.Distance(i, j));
        }
      }
    }
  }
}

/// Lemma 3/4 property sweep: for every group pair, the group DFD lower
/// bound must not exceed the DFD of any valid candidate starting in the
/// pair, and the upper bound must dominate at least one valid candidate.
/// Additionally the pattern bounds must lower-bound every candidate.
class GroupBoundSoundnessTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, std::uint64_t, bool>> {};

TEST_P(GroupBoundSoundnessTest, GroupBoundsSandwichCandidates) {
  const auto [n, xi, tau, seed, single] = GetParam();
  const DistanceMatrix dg = single ? MakeRandomSelfMatrix(n, seed)
                                   : MakeRandomCrossMatrix(n, n, seed);
  const MotifOptions options = Options(xi, single);
  const Grouping g = Grouping::Build(dg, options, tau);

  for (Index u = 0; u < g.num_row_groups(); ++u) {
    for (Index v = 0; v < g.num_col_groups(); ++v) {
      if (!g.AdmitsCandidate(u, v)) continue;
      double glb = 0.0;
      double gub = 0.0;
      g.DfdBounds(u, v, std::numeric_limits<double>::infinity(), &glb, &gub);
      const double pattern = g.PatternLb(u, v);

      double best_in_block = kInf;
      bool any = false;
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          if (!IsValidSubsetStart(options, n, n, i, j)) continue;
          const Index ie_max = single ? j - 1 : n - 1;
          for (Index ie = i + xi + 1; ie <= ie_max; ++ie) {
            for (Index je = j + xi + 1; je <= n - 1; ++je) {
              const double dfd =
                  DiscreteFrechetOnRange(dg, i, ie, j, je).value();
              any = true;
              best_in_block = std::min(best_in_block, dfd);
              EXPECT_LE(pattern, dfd)
                  << "pattern bound broke at (" << u << "," << v << ") cand ("
                  << i << "," << ie << "," << j << "," << je << ")";
              EXPECT_LE(glb, dfd)
                  << "GLB broke at (" << u << "," << v << ") cand (" << i
                  << "," << ie << "," << j << "," << je << ")";
            }
          }
        }
      }
      if (any) {
        // Upper bound: some valid candidate in the block is <= GUB
        // (when GUB is finite; +inf means no witness was guaranteed).
        if (gub < kInf) {
          EXPECT_LE(best_in_block, gub)
              << "GUB not achieved at (" << u << "," << v << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, GroupBoundSoundnessTest,
    ::testing::Combine(::testing::Values(18, 24), ::testing::Values(1, 2, 3),
                       ::testing::Values(2, 3, 4, 8),
                       ::testing::Values(12u, 13u), ::testing::Bool()));

TEST(GroupingTest, AdmitsCandidateMatchesPointLevelScan) {
  const Index n = 26;
  for (const bool single : {true, false}) {
    const DistanceMatrix dg = MakeRandomSelfMatrix(n, 4);
    const MotifOptions options = Options(3, single);
    const Grouping g = Grouping::Build(dg, options, 4);
    for (Index u = 0; u < g.num_row_groups(); ++u) {
      for (Index v = 0; v < g.num_col_groups(); ++v) {
        bool expect = false;
        for (Index i = g.RowFirst(u); i <= g.RowLast(u) && !expect; ++i) {
          for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
            if (IsValidSubsetStart(options, n, n, i, j)) {
              expect = true;
              break;
            }
          }
        }
        EXPECT_EQ(g.AdmitsCandidate(u, v), expect)
            << "single=" << single << " (" << u << "," << v << ")";
      }
    }
  }
}

TEST(GroupingTest, TauOneEnvelopesEqualGroundDistance) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(15, 2);
  const Grouping g = Grouping::Build(dg, Options(2, true), 1);
  for (Index i = 0; i < 15; ++i) {
    for (Index j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(g.Dmin(i, j), dg.Distance(i, j));
      EXPECT_DOUBLE_EQ(g.Dmax(i, j), dg.Distance(i, j));
    }
  }
}

TEST(GroupingTest, CrossAndBandDeactivateForLargeTau) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(40, 3);
  // tau > xi+1: crossing the neighbouring group is not guaranteed.
  const Grouping g = Grouping::Build(dg, Options(3, true), 8);
  EXPECT_EQ(g.CrossLb(0, 2), -kInf);
  EXPECT_EQ(g.BandLb(0, 2), -kInf);
  // The combined pattern bound then falls back to the cell bound.
  EXPECT_DOUBLE_EQ(g.PatternLb(0, 2), g.CellLb(0, 2));
}

/// Every per-pair query of two levels, bit for bit: the envelopes, the
/// cross and band bounds, and candidate admission.
void ExpectSameLevel(const Grouping& got, const Grouping& want,
                     const std::string& label) {
  ASSERT_EQ(got.tau(), want.tau()) << label;
  ASSERT_EQ(got.num_row_groups(), want.num_row_groups()) << label;
  ASSERT_EQ(got.num_col_groups(), want.num_col_groups()) << label;
  for (Index u = 0; u < want.num_row_groups(); ++u) {
    for (Index v = 0; v < want.num_col_groups(); ++v) {
      const std::string at =
          label + " (" + std::to_string(u) + "," + std::to_string(v) + ")";
      EXPECT_TRUE(SameBits(got.Dmin(u, v), want.Dmin(u, v))) << at;
      EXPECT_TRUE(SameBits(got.Dmax(u, v), want.Dmax(u, v))) << at;
      EXPECT_TRUE(SameBits(got.CrossLb(u, v), want.CrossLb(u, v))) << at;
      EXPECT_TRUE(SameBits(got.BandLb(u, v), want.BandLb(u, v))) << at;
      EXPECT_EQ(got.AdmitsCandidate(u, v), want.AdmitsCandidate(u, v)) << at;
    }
  }
}

/// GTM's halving chain τ0, τ0/2, ... down to the last τ > 1.
std::vector<Index> HalvingChain(Index tau) {
  std::vector<Index> chain;
  for (; tau > 1; tau /= 2) chain.push_back(tau);
  return chain;
}

/// Coarsen(fine, τ) equals Build(τ) for every pair of chain levels where
/// the coarse τ is a multiple of the fine one — the finest level of the
/// 32 → 2 chain to every coarser one, and in the non-nested chain
/// 40, 20, 10, 5, 2 also the τ=5 level to τ=10..40 — with n and m not
/// multiples of τ (trailing partial groups), in both variants.
/// Parameters: (n, m, ξ, τ0, single).
class GroupingCoarsenTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, bool>> {
};

TEST_P(GroupingCoarsenTest, CoarsenEqualsBuild) {
  const auto [n, m, xi, tau0, single] = GetParam();
  const DistanceMatrix dg = single ? MakeRandomSelfMatrix(n, 40 + n)
                                   : MakeRandomCrossMatrix(n, m, 50 + n);
  const MotifOptions options = Options(xi, single);
  const std::vector<Index> chain = HalvingChain(tau0);
  for (const Index fine_tau : chain) {
    const Grouping fine = Grouping::Build(dg, options, fine_tau);
    for (const Index tau : chain) {
      if (tau % fine_tau != 0) continue;
      ExpectSameLevel(Grouping::Coarsen(fine, tau),
                      Grouping::Build(dg, options, tau),
                      "tau " + std::to_string(fine_tau) + " -> " +
                          std::to_string(tau));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chains, GroupingCoarsenTest,
    ::testing::Values(std::make_tuple(37, 37, 7, 32, true),
                      std::make_tuple(100, 100, 7, 32, true),
                      std::make_tuple(361, 361, 30, 32, true),
                      std::make_tuple(37, 50, 7, 32, false),
                      std::make_tuple(100, 73, 12, 32, false),
                      std::make_tuple(361, 290, 30, 32, false),
                      std::make_tuple(100, 100, 7, 40, true),
                      std::make_tuple(361, 361, 45, 40, true),
                      std::make_tuple(100, 83, 7, 40, false)));

/// Build reads dG through RowSpan, so a ring whose rows cross its column
/// seam and the on-the-fly rows must give the matrix's level bit for bit.
TEST(GroupingTest, BuildIsTheSameOverEveryProvider) {
  const Index n = 45;
  const Trajectory walk = MakePlanarWalk(n, 8);
  const DistanceMatrix dg = DistanceMatrix::Build(walk, Euclidean()).value();
  const Trajectory feed = MakePlanarWalk(n + 13, 9);
  const DistanceMatrix feed_window =
      DistanceMatrix::Build(feed.Slice(13, n + 12), Euclidean()).value();
  const RingDistanceMatrix ring = MakeShiftedRing(feed, n, Euclidean());
  const OnTheFlyDistance fly(walk, Euclidean());
  for (const Index tau : {1, 2, 3, 4, 8}) {
    const MotifOptions options = Options(3, true);
    ExpectSameLevel(Grouping::Build(fly, options, tau),
                    Grouping::Build(dg, options, tau),
                    "fly tau " + std::to_string(tau));
    ExpectSameLevel(Grouping::Build(ring, options, tau),
                    Grouping::Build(feed_window, options, tau),
                    "ring tau " + std::to_string(tau));
  }
}

}  // namespace
}  // namespace frechet_motif
