// Randomized streaming <-> batch parity: random window/slide/ξ schedules
// over generated trajectories, replayed through a serial one-member
// fleet and a threads=4 one in lockstep. Every emitted update must be
// bit-identical — candidate and distance — to a from-scratch FindMotif
// (the relaxed bounding search) on the identical window, and the two
// fleets must agree with each other on every slide.

#include <optional>
#include <vector>

#include "core/distance_matrix.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "motif/motif.h"
#include "motif/relaxed_bounds.h"
#include "similarity/frechet.h"
#include "stream/motif_fleet_engine.h"
#include "stream/window_state.h"
#include "stream_test_util.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

struct FuzzConfig {
  Index window = 0;
  Index slide = 0;
  Index xi = 0;
  Index points = 0;
  bool haversine = false;
  std::uint64_t data_seed = 0;
};

FuzzConfig DrawConfig(Rng* rng, std::uint64_t data_seed) {
  FuzzConfig config;
  config.xi = static_cast<Index>(rng->NextInt(6, 24));
  // W must admit a valid single-trajectory candidate: W >= 2ξ + 4.
  config.window = static_cast<Index>(
      rng->NextInt(2 * config.xi + 4, 2 * config.xi + 80));
  config.slide = static_cast<Index>(rng->NextInt(1, config.window));
  config.points =
      config.window + static_cast<Index>(rng->NextInt(50, 260));
  config.haversine = rng->NextInt(0, 1) == 0;
  config.data_seed = data_seed;
  return config;
}

Trajectory MakeData(const FuzzConfig& config) {
  if (config.haversine) {
    DatasetOptions options;
    options.length = config.points;
    options.seed = config.data_seed;
    return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  }
  return testing_util::MakePlanarWalk(config.points, config.data_seed);
}

TEST(StreamParityFuzz, RandomSchedulesMatchBatchSerialAndThreaded) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260730);
  const int rounds = testing_util::FuzzRounds(6);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, seed + 1000 + round);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.window
                 << " slide=" << config.slide << " xi=" << config.xi
                 << " n=" << config.points
                 << (config.haversine ? " haversine" : " euclidean"));
    const Trajectory t = MakeData(config);
    const HaversineMetric haversine;
    const EuclideanMetric euclidean;
    const GroundMetric& metric =
        config.haversine ? static_cast<const GroundMetric&>(haversine)
                         : static_cast<const GroundMetric&>(euclidean);

    StreamOptions serial_options;
    serial_options.window_length = config.window;
    serial_options.slide_step = config.slide;
    serial_options.min_length_xi = config.xi;
    serial_options.threads = 1;
    StreamOptions threaded_options = serial_options;
    threaded_options.threads = 4;

    auto serial = testing_util::OneMemberFleet(serial_options, metric);
    auto threaded = testing_util::OneMemberFleet(threaded_options, metric);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(threaded.ok()) << threaded.status();

    int slides = 0;
    for (Index k = 0; k < t.size(); ++k) {
      auto su = testing_util::SoleUpdate(serial.value().Push(0, t[k]));
      auto tu = testing_util::SoleUpdate(threaded.value().Push(0, t[k]));
      ASSERT_TRUE(su.ok()) << su.status();
      ASSERT_TRUE(tu.ok()) << tu.status();
      ASSERT_EQ(su.value().has_value(), tu.value().has_value());
      if (!su.value().has_value()) continue;
      ++slides;

      // Serial and threads=4 agree bit for bit, including seeding and
      // the carried flag.
      EXPECT_EQ(su.value()->motif.best, tu.value()->motif.best);
      EXPECT_EQ(su.value()->motif.distance, tu.value()->motif.distance);
      EXPECT_EQ(su.value()->seeded, tu.value()->seeded);
      EXPECT_EQ(su.value()->carried, tu.value()->carried);

      // Both agree with the from-scratch baseline on the same window —
      // candidate and distance unconditionally, carried slides and exact
      // ties included (the canonical tie-break is shared by both paths).
      const Trajectory window = serial.value().WindowTrajectory(0);
      auto scratch =
          FindMotif(window, metric, serial_options.BaselineOptions());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      EXPECT_EQ(scratch.value().found, su.value()->motif.found);
      EXPECT_EQ(scratch.value().distance, su.value()->motif.distance);
      EXPECT_EQ(scratch.value().best, su.value()->motif.best)
          << (su.value()->carried ? "carried slide" : "fresh slide");
    }
    EXPECT_GT(slides, 0);
  }
}

TEST(StreamParityFuzz, RandomCrossInterleavings) {
  const std::uint64_t seed = testing_util::FuzzSeed(424242);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(6, 16));
    StreamOptions options;
    options.min_length_xi = xi;
    options.window_length = static_cast<Index>(rng.NextInt(xi + 8, 70));
    options.slide_step =
        static_cast<Index>(rng.NextInt(1, options.window_length));
    options.threads = round == 2 ? 4 : 1;
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << options.window_length
                 << " slide=" << options.slide_step << " xi=" << xi);

    DatasetOptions data;
    data.length = 260;
    data.seed = seed + 5000 + round;
    const Trajectory a =
        MakeDataset(DatasetKind::kGeoLifeLike, data).value();
    data.seed = seed + 6000 + round;
    const Trajectory b = MakeDataset(DatasetKind::kTruckLike, data).value();
    const HaversineMetric metric;

    auto fleet = testing_util::OneMemberFleet(options, metric, /*cross=*/true);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    Index ka = 0;
    Index kb = 0;
    int slides = 0;
    while (ka < a.size() || kb < b.size()) {
      const bool push_first =
          kb >= b.size() || (ka < a.size() && rng.NextInt(0, 1) == 0);
      auto push = testing_util::SoleUpdate(
          push_first ? fleet.value().Push(0, a[ka++])
                     : fleet.value().Push(1, b[kb++]));
      ASSERT_TRUE(push.ok()) << push.status();
      if (!push.value().has_value()) continue;
      ++slides;
      const Trajectory wa = fleet.value().WindowTrajectory(0);
      const Trajectory wb = fleet.value().WindowTrajectory(1);
      auto scratch = FindMotif(wa, wb, metric, options.BaselineOptions());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      EXPECT_EQ(scratch.value().distance, push.value()->motif.distance);
      EXPECT_EQ(scratch.value().best, push.value()->motif.best)
          << (push.value()->carried ? "carried slide" : "fresh slide");
    }
    EXPECT_GT(slides, 0);
  }
}

TEST(StreamParityFuzz, CrossBoundsMatchFreshBuildUnderTwoSidedSchedules) {
  // The cross-mode incremental bound maintenance (Update with two
  // independent shifts): random two-sided append schedules — including
  // heavily one-sided ones, so slides see (shift_row, 0), (0, shift_col)
  // and everything between — with the bound arrays the next search uses
  // compared against a fresh RelaxedBounds::Build over the identical
  // window pair after every slide. Equality is exact (==), not
  // approximate: a running min over doubles does not depend on the
  // reduction order, so carry + rescan must reproduce Build bit for bit.
  const std::uint64_t seed = testing_util::FuzzSeed(20260812);
  const int rounds = testing_util::FuzzRounds(4);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(5, 14));
    StreamOptions options;
    options.min_length_xi = xi;
    options.window_length = static_cast<Index>(rng.NextInt(xi + 6, 60));
    options.slide_step =
        static_cast<Index>(rng.NextInt(1, options.window_length));
    // Per-round bias of the side coin: round 0 feeds mostly side 0,
    // round 1 mostly side 1, later rounds are balanced.
    const int side0_percent =
        round == 0 ? 85 : (round == 1 ? 15 : static_cast<int>(
                                                 rng.NextInt(30, 70)));
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << options.window_length
                 << " slide=" << options.slide_step << " xi=" << xi
                 << " side0%=" << side0_percent);

    const Index points = 220;
    const Trajectory a =
        testing_util::MakePlanarWalk(points, seed + 8000 + round);
    const Trajectory b =
        testing_util::MakePlanarWalk(points, seed + 9000 + round);

    // Driven directly (not through a fleet) for the CurrentBounds() hook.
    auto state = WindowState::Create(options, metric, /*cross=*/true);
    ASSERT_TRUE(state.ok()) << state.status();
    MotifOptions motif;
    motif.variant = MotifVariant::kCrossTrajectory;
    motif.min_length_xi = xi;

    Index ka = 0;
    Index kb = 0;
    int checked = 0;
    while (ka < a.size() || kb < b.size()) {
      const bool push_first =
          kb >= b.size() ||
          (ka < a.size() &&
           rng.NextInt(1, 100) <= static_cast<std::int64_t>(side0_percent));
      ASSERT_TRUE(state.value()
                      .Append(push_first ? 0 : 1,
                              push_first ? a[ka++] : b[kb++], nullptr)
                      .ok());
      if (!state.value().SearchDue()) continue;
      auto update = state.value().RunSearch(nullptr);
      ASSERT_TRUE(update.ok()) << update.status();

      const Trajectory wa = state.value().WindowTrajectory(0);
      const Trajectory wb = state.value().WindowTrajectory(1);
      const DistanceMatrix dg = DistanceMatrix::Build(wa, wb, metric).value();
      const RelaxedBounds fresh = RelaxedBounds::Build(dg, motif);
      const RelaxedBounds maintained = state.value().CurrentBounds();
      for (Index j = 0; j < wb.size(); ++j) {
        ASSERT_EQ(fresh.Rmin(j), maintained.Rmin(j)) << "Rmin " << j;
        ASSERT_EQ(fresh.RminFull(j), maintained.RminFull(j))
            << "RminFull " << j;
        ASSERT_EQ(fresh.BandRow(j), maintained.BandRow(j)) << "BandRow " << j;
      }
      for (Index i = 0; i < wa.size(); ++i) {
        ASSERT_EQ(fresh.Cmin(i), maintained.Cmin(i)) << "Cmin " << i;
        ASSERT_EQ(fresh.CminStart(i), maintained.CminStart(i))
            << "CminStart " << i;
        ASSERT_EQ(fresh.CminFull(i), maintained.CminFull(i))
            << "CminFull " << i;
        ASSERT_EQ(fresh.BandCol(i), maintained.BandCol(i)) << "BandCol " << i;
      }
      ++checked;
    }
    EXPECT_GT(checked, 0);
  }
}

}  // namespace
}  // namespace frechet_motif
