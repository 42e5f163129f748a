/// Agreement and metamorphic checks at a length BruteDP cannot reach
/// (n = 3000, where its O(n^4) subset DP would run for hours): every
/// exact algorithm returns the same motif, bit for bit, and the motif
/// distance is invariant under trajectory reversal and argument swap.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/motif.h"

namespace frechet_motif {
namespace {

Trajectory GeoLifeLike(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

MotifResult Search(MotifAlgorithm algorithm, int threads, const Trajectory& s,
                const Trajectory* t = nullptr) {
  FindMotifOptions options;
  options.algorithm = algorithm;
  options.min_length_xi = 50;
  options.threads = threads;
  const StatusOr<MotifResult> r =
      t != nullptr ? FindMotif(s, *t, Haversine(), options)
                   : FindMotif(s, Haversine(), options);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.value() : MotifResult{};
}

TEST(ScaleTest, EveryExactAlgorithmAgreesAtN3000) {
  const Trajectory s = GeoLifeLike(3000, 7);
  const MotifResult gtm = Search(MotifAlgorithm::kGtm, 1, s);
  ASSERT_TRUE(gtm.found);
  for (const auto& [algorithm, threads] :
       {std::pair{MotifAlgorithm::kBtm, 1}, {MotifAlgorithm::kGtmStar, 1},
        {MotifAlgorithm::kGtm, 4}}) {
    const MotifResult got = Search(algorithm, threads, s);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(gtm.best, got.best)
        << AlgorithmName(algorithm) << " threads=" << threads;
    EXPECT_EQ(gtm.distance, got.distance)
        << AlgorithmName(algorithm) << " threads=" << threads;
  }
}

TEST(ScaleTest, ReversalKeepsTheMotifDistance) {
  const Trajectory s = GeoLifeLike(3000, 7);
  std::vector<Point> reversed(s.points().rbegin(), s.points().rend());
  const MotifResult forward = Search(MotifAlgorithm::kGtmStar, 1, s);
  const MotifResult backward =
      Search(MotifAlgorithm::kGtmStar, 1, Trajectory(std::move(reversed)));
  ASSERT_TRUE(forward.found);
  ASSERT_TRUE(backward.found);
  EXPECT_EQ(forward.distance, backward.distance);
}

TEST(ScaleTest, CrossModeIsSymmetricUnderArgumentSwap) {
  const Trajectory s = GeoLifeLike(1500, 11);
  const Trajectory t = GeoLifeLike(1500, 12);
  const MotifResult st = Search(MotifAlgorithm::kGtmStar, 1, s, &t);
  const MotifResult ts = Search(MotifAlgorithm::kGtmStar, 1, t, &s);
  ASSERT_TRUE(st.found);
  ASSERT_TRUE(ts.found);
  EXPECT_EQ(st.distance, ts.distance);
}

}  // namespace
}  // namespace frechet_motif
