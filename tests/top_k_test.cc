#include "motif/top_k.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>

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
using testing_util::MakeTiedCrossMatrix;
using testing_util::MakeTiedSelfMatrix;

/// Oracle: the exact optimum of every candidate subset, by brute force.
std::vector<double> AllSubsetOptima(const DistanceMatrix& dg,
                                    const MotifOptions& options) {
  std::vector<double> optima;
  const Index n = dg.rows();
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    double best = std::numeric_limits<double>::infinity();
    const Index ie_max =
        options.variant == MotifVariant::kSingleTrajectory ? j - 1 : n - 1;
    for (Index ie = i + options.min_length_xi + 1; ie <= ie_max; ++ie) {
      for (Index je = j + options.min_length_xi + 1; je <= n - 1; ++je) {
        best = std::min(best,
                        DiscreteFrechetOnRange(dg, i, ie, j, je).value());
      }
    }
    optima.push_back(best);
  });
  std::sort(optima.begin(), optima.end());
  return optima;
}

TEST(TopKTest, RejectsBadArguments) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 1);
  TopKOptions options;
  options.motif.min_length_xi = 2;
  options.k = 0;
  EXPECT_FALSE(TopKMotifs(dg, options).ok());
  options.k = 3;
  options.min_start_separation = 0;
  EXPECT_FALSE(TopKMotifs(dg, options).ok());
}

TEST(TopKTest, TopOneMatchesBtm) {
  // k = 1 is the motif itself, candidate included: ties resolve in the
  // canonical candidate order, as in every other search. The tied family
  // (integer-valued entries) has many equal-distance subset optima.
  for (const bool cross : {false, true}) {
    for (const bool tied : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const DistanceMatrix dg =
            tied ? (cross ? MakeTiedCrossMatrix(32, 32, seed)
                          : MakeTiedSelfMatrix(32, seed))
                 : (cross ? MakeRandomCrossMatrix(32, 32, seed)
                          : MakeRandomSelfMatrix(32, seed));
        TopKOptions options;
        options.motif.min_length_xi = 3;
        if (cross) options.motif.variant = MotifVariant::kCrossTrajectory;
        options.k = 1;
        BtmOptions btm;
        btm.motif = options.motif;
        StatusOr<std::vector<MotifResult>> top = TopKMotifs(dg, options);
        StatusOr<MotifResult> best = BtmMotif(dg, btm);
        ASSERT_TRUE(top.ok());
        ASSERT_TRUE(best.ok());
        ASSERT_EQ(top.value().size(), 1u);
        EXPECT_DOUBLE_EQ(top.value()[0].distance, best.value().distance)
            << "seed=" << seed << " cross=" << cross << " tied=" << tied;
        EXPECT_EQ(top.value()[0].best, best.value().best)
            << "seed=" << seed << " cross=" << cross << " tied=" << tied;
      }
    }
  }
}

class TopKExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TopKExactnessTest, MatchesKSmallestSubsetOptima) {
  const auto [k, seed] = GetParam();
  const DistanceMatrix dg = MakeRandomSelfMatrix(26, seed);
  TopKOptions options;
  options.motif.min_length_xi = 2;
  options.k = k;
  options.min_start_separation = 1;  // exact mode
  StatusOr<std::vector<MotifResult>> got = TopKMotifs(dg, options);
  ASSERT_TRUE(got.ok()) << got.status();
  const std::vector<double> oracle = AllSubsetOptima(dg, options.motif);
  ASSERT_EQ(got.value().size(),
            std::min<std::size_t>(k, oracle.size()));
  for (std::size_t r = 0; r < got.value().size(); ++r) {
    EXPECT_DOUBLE_EQ(got.value()[r].distance, oracle[r])
        << "rank " << r << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, TopKExactnessTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(7u, 8u, 9u)));

TEST(TopKTest, ResultsAscendAndAreValid) {
  const Trajectory s = MakePlanarWalk(120, 4);
  TopKOptions options;
  options.motif.min_length_xi = 10;
  options.k = 6;
  StatusOr<std::vector<MotifResult>> got =
      TopKMotifs(s, Euclidean(), options);
  ASSERT_TRUE(got.ok());
  const std::vector<MotifResult>& results = got.value();
  ASSERT_GE(results.size(), 2u);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  for (std::size_t r = 0; r < results.size(); ++r) {
    EXPECT_TRUE(
        IsValidCandidate(results[r].best, options.motif, s.size(), s.size()));
    if (r > 0) {
      EXPECT_GE(results[r].distance, results[r - 1].distance);
    }
    // Reported distance is the pair's exact DFD.
    const Candidate c = results[r].best;
    EXPECT_DOUBLE_EQ(
        results[r].distance,
        DiscreteFrechetOnRange(dg, c.i, c.ie, c.j, c.je).value());
  }
}

TEST(TopKTest, SeparationIsHonoured) {
  const Trajectory s = MakePlanarWalk(140, 6);
  TopKOptions options;
  options.motif.min_length_xi = 10;
  options.k = 5;
  options.min_start_separation = 15;
  StatusOr<std::vector<MotifResult>> got =
      TopKMotifs(s, Euclidean(), options);
  ASSERT_TRUE(got.ok());
  const auto& results = got.value();
  for (std::size_t a = 0; a < results.size(); ++a) {
    for (std::size_t b = a + 1; b < results.size(); ++b) {
      const Index di = std::abs(results[a].best.i - results[b].best.i);
      const Index dj = std::abs(results[a].best.j - results[b].best.j);
      EXPECT_GE(std::max(di, dj), options.min_start_separation)
          << "results " << a << " and " << b << " too close";
    }
  }
}

TEST(TopKTest, DistinctSubsetsPerResult) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(28, 11);
  TopKOptions options;
  options.motif.min_length_xi = 2;
  options.k = 10;
  StatusOr<std::vector<MotifResult>> got = TopKMotifs(dg, options);
  ASSERT_TRUE(got.ok());
  std::map<std::pair<Index, Index>, int> starts;
  for (const MotifResult& r : got.value()) {
    ++starts[{r.best.i, r.best.j}];
  }
  for (const auto& [start, count] : starts) {
    EXPECT_EQ(count, 1) << "(" << start.first << "," << start.second << ")";
  }
}

TEST(TopKTest, KLargerThanPoolReturnsEverything) {
  // Tiny input: few valid subsets; ask for far more.
  const DistanceMatrix dg = MakeRandomSelfMatrix(10, 3);
  TopKOptions options;
  options.motif.min_length_xi = 1;
  options.k = 1000;
  StatusOr<std::vector<MotifResult>> got = TopKMotifs(dg, options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(static_cast<std::int64_t>(got.value().size()),
            CountValidSubsets(options.motif, 10, 10));
}

TEST(TopKTest, CrossVariantWorks) {
  const Trajectory s = MakePlanarWalk(50, 8);
  const Trajectory t = MakePlanarWalk(55, 9);
  TopKOptions options;
  options.motif.min_length_xi = 5;
  options.k = 3;
  StatusOr<std::vector<MotifResult>> got =
      TopKMotifs(s, t, Euclidean(), options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 3u);
  for (const MotifResult& r : got.value()) {
    MotifOptions cross = options.motif;
    cross.variant = MotifVariant::kCrossTrajectory;
    EXPECT_TRUE(IsValidCandidate(r.best, cross, s.size(), t.size()));
  }
}

}  // namespace
}  // namespace frechet_motif
