#include "motif/top_k.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <tuple>

#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/btm.h"
#include "motif/relaxed_bounds.h"
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

/// TopKMotifs' selection over exact subset optima: the same sorted queue,
/// stop rule, heap and greedy separation, but every evaluated subset
/// reports its exact optimum (a fresh SearchState, threshold +inf), so no
/// pruning threshold reaches the subset DP.
std::vector<MotifResult> ExactPoolTopK(const DistanceProvider& dist,
                                       const TopKOptions& options) {
  const RelaxedBounds rb = RelaxedBounds::Build(dist, options.motif);
  std::vector<SubsetEntry> entries = BuildSubsetQueue(
      options.motif, dist.rows(), dist.cols(), nullptr,
      [&](Index i, Index j) { return rb.SubsetLb(dist, i, j); });
  SortSubsetQueue(&entries);
  const Index sep = options.min_start_separation;
  const std::size_t capacity =
      static_cast<std::size_t>(options.k * (sep == 1 ? 1 : 2 * sep));
  std::priority_queue<double> heap;
  std::vector<MotifResult> pool;
  FrechetScratch scratch;
  for (const SubsetEntry& e : entries) {
    if (heap.size() == capacity && e.lb > heap.top()) break;
    SearchState exact;
    EvaluateSubset(dist, options.motif, e.i, e.j, EndpointCaps{}, &exact,
                   nullptr, &scratch);
    pool.push_back(exact.result());
    heap.push(exact.best_distance);
    if (heap.size() > capacity) heap.pop();
  }
  std::sort(pool.begin(), pool.end(),
            [](const MotifResult& a, const MotifResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return CandidateOrderedBefore(a.best, b.best);
            });
  std::vector<MotifResult> chosen;
  for (const MotifResult& r : pool) {
    if (static_cast<int>(chosen.size()) == options.k) break;
    const bool conflicts = std::any_of(
        chosen.begin(), chosen.end(), [&](const MotifResult& c) {
          return std::max(std::abs(r.best.i - c.best.i),
                          std::abs(r.best.j - c.best.j)) < sep;
        });
    if (!conflicts) chosen.push_back(r);
  }
  return chosen;
}

/// The subset DP freezes cells above the threshold TopKMotifs hands it;
/// the answer must still be the exact-pool selection, on every rank. A
/// separation above 1 is where a DP frozen at the heap top changed the
/// answer (a wider pool needs every evaluated subset's exact optimum).
/// Parameters: (index into kAllDatasetKinds, n, seed); each runs
/// separations {1, 5, 20} and k {3, 8} at xi = 20.
class TopKExactPoolTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopKExactPoolTest, MatchesTheExactPoolSelection) {
  const auto [kind, n, seed] = GetParam();
  DatasetOptions data;
  data.length = n;
  data.seed = static_cast<std::uint64_t>(seed);
  const Trajectory t = MakeDataset(kAllDatasetKinds[kind], data).value();
  const DistanceMatrix dg = DistanceMatrix::Build(t, Haversine()).value();
  for (const Index sep : {1, 5, 20}) {
    for (const int k : {3, 8}) {
      TopKOptions options;
      options.motif.min_length_xi = 20;
      options.min_start_separation = sep;
      options.k = k;
      const std::vector<MotifResult> got = TopKMotifs(dg, options).value();
      const std::vector<MotifResult> want = ExactPoolTopK(dg, options);
      ASSERT_EQ(want.size(), got.size()) << "sep=" << sep << " k=" << k;
      for (std::size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(want[r].best, got[r].best)
            << "sep=" << sep << " k=" << k << " rank " << r;
        EXPECT_EQ(want[r].distance, got[r].distance)
            << "sep=" << sep << " k=" << k << " rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopKExactPoolTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values(300, 600),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace frechet_motif
