// Tests of the mutable GridIndex operations and the incrementally
// maintained DFD ε-join: every Tick's delta accumulation must equal a
// from-scratch DfdSelfJoin over the current snapshots, while the verdict
// cache provably skips clean pairs.

#include <algorithm>
#include <limits>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "join/grid_index.h"
#include "join/incremental_join.h"
#include "join/similarity_join.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

BoundingBox Box(double min_x, double max_x, double min_y, double max_y) {
  return BoundingBox{min_x, max_x, min_y, max_y};
}

// --- Mutable GridIndex -------------------------------------------------------

TEST(GridIndexMutable, InsertUpdateRemoveKeepTheSupersetGuarantee) {
  auto grid = GridIndex::CreateEmpty(10.0);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(grid.value().Insert(0, Box(0, 5, 0, 5)).ok());
  ASSERT_TRUE(grid.value().Insert(1, Box(50, 55, 50, 55)).ok());
  ASSERT_TRUE(grid.value().Insert(2, Box(4, 12, 4, 12)).ok());
  EXPECT_EQ(3u, grid.value().size());

  // Duplicate insert / unknown update are errors.
  EXPECT_FALSE(grid.value().Insert(1, Box(0, 1, 0, 1)).ok());
  EXPECT_FALSE(grid.value().Update(9, Box(0, 1, 0, 1)).ok());
  EXPECT_FALSE(grid.value().Remove(9).ok());

  std::vector<std::size_t> near_origin =
      grid.value().Candidates(Box(1, 2, 1, 2));
  EXPECT_NE(near_origin.end(),
            std::find(near_origin.begin(), near_origin.end(), 0u));
  EXPECT_NE(near_origin.end(),
            std::find(near_origin.begin(), near_origin.end(), 2u));
  EXPECT_EQ(near_origin.end(),
            std::find(near_origin.begin(), near_origin.end(), 1u));

  // Slide box 0 across the grid: it must disappear near the origin and
  // appear at its new location.
  ASSERT_TRUE(grid.value().Update(0, Box(48, 53, 48, 53)).ok());
  near_origin = grid.value().Candidates(Box(1, 2, 1, 2));
  EXPECT_EQ(near_origin.end(),
            std::find(near_origin.begin(), near_origin.end(), 0u));
  std::vector<std::size_t> far = grid.value().Candidates(Box(49, 52, 49, 52));
  EXPECT_NE(far.end(), std::find(far.begin(), far.end(), 0u));
  EXPECT_NE(far.end(), std::find(far.begin(), far.end(), 1u));

  ASSERT_TRUE(grid.value().Remove(0).ok());
  EXPECT_EQ(2u, grid.value().size());
  far = grid.value().Candidates(Box(49, 52, 49, 52));
  EXPECT_EQ(far.end(), std::find(far.begin(), far.end(), 0u));
}

TEST(GridIndexMutable, RandomizedUpdatesMatchFreshBuild) {
  // After any sequence of Insert/Update/Remove, Candidates() must equal a
  // fresh Build over the surviving boxes, for every probe.
  Rng rng(20260730);
  auto grid = GridIndex::CreateEmpty(7.0);
  ASSERT_TRUE(grid.ok());
  std::vector<BoundingBox> live(16);
  std::vector<bool> present(16, false);

  const auto random_box = [&]() {
    const double x = rng.NextDouble(-40.0, 40.0);
    const double y = rng.NextDouble(-40.0, 40.0);
    return Box(x, x + rng.NextDouble(0.1, 25.0), y,
               y + rng.NextDouble(0.1, 25.0));
  };

  for (int step = 0; step < 300; ++step) {
    const std::size_t id = static_cast<std::size_t>(rng.NextInt(0, 15));
    if (!present[id]) {
      live[id] = random_box();
      ASSERT_TRUE(grid.value().Insert(id, live[id]).ok());
      present[id] = true;
    } else if (rng.NextInt(0, 3) == 0) {
      ASSERT_TRUE(grid.value().Remove(id).ok());
      present[id] = false;
    } else {
      live[id] = random_box();
      ASSERT_TRUE(grid.value().Update(id, live[id]).ok());
    }

    // Reference: rebuild from the live set (dense re-ids), probe both.
    const BoundingBox probe = random_box();
    std::vector<std::size_t> expected;
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (present[k] && live[k].Intersects(probe)) expected.push_back(k);
    }
    const std::vector<std::size_t> got = grid.value().Candidates(probe);
    // Superset of true intersections, never a miss.
    for (const std::size_t id_expected : expected) {
      EXPECT_NE(got.end(), std::find(got.begin(), got.end(), id_expected))
          << "step " << step;
    }
    // And sorted and duplicate-free.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(got.end(), std::adjacent_find(got.begin(), got.end()));
  }
}

// --- IncrementalDfdJoin ------------------------------------------------------

Trajectory GeoWalk(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

/// Asserts the incremental join's accumulated matches equal a
/// from-scratch DfdSelfJoin over `snapshots` (ids 0..n-1, all present).
void ExpectMatchesFromScratch(const IncrementalDfdJoin& join,
                              const std::vector<Trajectory>& snapshots,
                              const JoinOptions& options,
                              const GroundMetric& metric) {
  auto scratch = DfdSelfJoin(snapshots, metric, options);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  EXPECT_EQ(scratch.value(), join.CurrentMatches());
}

TEST(IncrementalDfdJoin, SlidingSnapshotsTrackFromScratchJoin) {
  const HaversineMetric metric;
  JoinOptions options;
  options.threshold = 2500.0;

  // Four streams: two near-identical, two different profiles. Slide a
  // 60-point window over each in steps of 15 and keep the join current.
  std::vector<Trajectory> full;
  full.push_back(GeoWalk(240, 1));
  full.push_back(GeoWalk(240, 1));
  full.push_back(GeoWalk(240, 77));
  {
    DatasetOptions truck;
    truck.length = 240;
    truck.seed = 5;
    full.push_back(MakeDataset(DatasetKind::kTruckLike, truck).value());
  }

  auto join = IncrementalDfdJoin::Create(options, metric);
  ASSERT_TRUE(join.ok());

  constexpr Index kWindow = 60;
  constexpr Index kStep = 15;
  std::vector<JoinPair> accumulated;
  int entered_seen = 0;
  for (Index start = 0; start + kWindow <= 240; start += kStep) {
    std::vector<Trajectory> snapshots;
    for (std::size_t s = 0; s < full.size(); ++s) {
      Trajectory window = full[s].Slice(start, start + kWindow - 1);
      snapshots.push_back(window);
      ASSERT_TRUE(join.value().Update(s, std::move(window)).ok());
    }
    auto delta = join.value().Tick();
    ASSERT_TRUE(delta.ok()) << delta.status();
    for (const JoinPair& p : delta.value().entered) {
      accumulated.push_back(p);
      ++entered_seen;
    }
    for (const JoinPair& p : delta.value().left) {
      const auto at = std::find(accumulated.begin(), accumulated.end(), p);
      ASSERT_NE(accumulated.end(), at);
      accumulated.erase(at);
    }
    std::sort(accumulated.begin(), accumulated.end(),
              [](const JoinPair& a, const JoinPair& b) {
                return a.li != b.li ? a.li < b.li : a.ri < b.ri;
              });
    EXPECT_EQ(accumulated, join.value().CurrentMatches());
    ExpectMatchesFromScratch(join.value(), snapshots, options, metric);
  }
  EXPECT_GT(entered_seen, 0);
  // The identical pair must be matched throughout.
  const std::vector<JoinPair> matches = join.value().CurrentMatches();
  EXPECT_NE(matches.end(),
            std::find(matches.begin(), matches.end(), JoinPair{0, 1}));
}

TEST(IncrementalDfdJoin, CleanPairsCarryVerdictsWithoutReverification) {
  const HaversineMetric metric;
  JoinOptions options;
  options.threshold = 5000.0;
  auto join = IncrementalDfdJoin::Create(options, metric);
  ASSERT_TRUE(join.ok());

  // Three members, all pairwise within ε (same seed → identical; third
  // close by construction of the generator's shared city model).
  ASSERT_TRUE(join.value().Update(0, GeoWalk(80, 3)).ok());
  ASSERT_TRUE(join.value().Update(1, GeoWalk(80, 3)).ok());
  ASSERT_TRUE(join.value().Update(2, GeoWalk(80, 3)).ok());
  ASSERT_TRUE(join.value().Tick().ok());
  ASSERT_EQ(3u, join.value().CurrentMatches().size());

  // Touch only member 2: the (0,1) verdict must be carried, not re-run;
  // the two pairs touching member 2 resolve either through the cascade
  // (still grid neighbors) or through the grid eviction (moved away).
  const std::int64_t reverified_before = join.value().stats().pairs_reverified;
  const std::int64_t evicted_before = join.value().stats().evicted_by_grid;
  ASSERT_TRUE(join.value().Update(2, GeoWalk(80, 4)).ok());
  auto delta = join.value().Tick();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(2, (join.value().stats().pairs_reverified - reverified_before) +
                   (join.value().stats().evicted_by_grid - evicted_before));
  EXPECT_GE(join.value().stats().verdicts_carried, 1);
}

TEST(IncrementalDfdJoin, RemoveEmitsLeftPairsOnNextTick) {
  const HaversineMetric metric;
  JoinOptions options;
  options.threshold = 5000.0;
  auto join = IncrementalDfdJoin::Create(options, metric);
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(join.value().Update(0, GeoWalk(80, 3)).ok());
  ASSERT_TRUE(join.value().Update(1, GeoWalk(80, 3)).ok());
  ASSERT_TRUE(join.value().Tick().ok());
  ASSERT_EQ(1u, join.value().CurrentMatches().size());

  ASSERT_TRUE(join.value().Remove(1).ok());
  auto delta = join.value().Tick();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(1u, delta.value().left.size());
  EXPECT_EQ((JoinPair{0, 1}), delta.value().left[0]);
  EXPECT_TRUE(join.value().CurrentMatches().empty());
  EXPECT_FALSE(join.value().Remove(1).ok());  // already gone
}

TEST(IncrementalDfdJoin, ValidatesInputs) {
  const HaversineMetric metric;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    JoinOptions options;
    options.threshold = bad;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              IncrementalDfdJoin::Create(options, metric).status().code())
        << bad;
  }

  JoinOptions options;
  options.threshold = 100.0;
  auto join = IncrementalDfdJoin::Create(options, metric);
  ASSERT_TRUE(join.ok());
  EXPECT_FALSE(join.value().Update(0, Trajectory(std::vector<Point>{})).ok());
  EXPECT_FALSE(join.value().Remove(0).ok());
}

TEST(IncrementalDfdJoin, EuclideanRandomizedParity) {
  // Randomized update schedules on planar walks, checked against the
  // from-scratch join after every tick.
  const EuclideanMetric metric;
  JoinOptions options;
  options.threshold = 120.0;
  auto join = IncrementalDfdJoin::Create(options, metric);
  ASSERT_TRUE(join.ok());

  Rng rng(77);
  constexpr std::size_t kMembers = 6;
  std::vector<Trajectory> snapshots;
  for (std::size_t s = 0; s < kMembers; ++s) {
    snapshots.push_back(
        testing_util::MakePlanarWalk(40, 1000 + s, /*step=*/8.0));
    ASSERT_TRUE(join.value().Update(s, snapshots[s]).ok());
  }
  ASSERT_TRUE(join.value().Tick().ok());
  ExpectMatchesFromScratch(join.value(), snapshots, options, metric);

  for (int round = 0; round < 20; ++round) {
    // Touch 1-3 random members per round.
    const int touches = static_cast<int>(rng.NextInt(1, 3));
    for (int t = 0; t < touches; ++t) {
      const std::size_t id =
          static_cast<std::size_t>(rng.NextInt(0, kMembers - 1));
      snapshots[id] = testing_util::MakePlanarWalk(
          40, static_cast<std::uint64_t>(rng.NextInt(0, 1 << 20)),
          /*step=*/8.0);
      ASSERT_TRUE(join.value().Update(id, snapshots[id]).ok());
    }
    auto delta = join.value().Tick();
    ASSERT_TRUE(delta.ok()) << delta.status();
    ExpectMatchesFromScratch(join.value(), snapshots, options, metric);
  }
}

}  // namespace
}  // namespace frechet_motif
