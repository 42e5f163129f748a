// Randomized fleet <-> one-member fleets parity: random window/slide/ξ/
// stream counts, random interleaved arrival schedules, replayed through
// a serial fleet, a threads=4 fleet and N independent one-member fleets
// (the "monitors" below) in lockstep. Every per-stream report sequence
// must be bit-identical across all three — candidate, distance, flags
// and DP-cell counters — and, with the ε-join enabled, the accumulated
// join deltas must equal a from-scratch DfdSelfJoin over the searched
// window snapshots.

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "join/similarity_join.h"
#include "stream/motif_fleet_engine.h"
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
  std::size_t streams = 0;
  bool haversine = false;
  double join_epsilon = -1.0;
};

FuzzConfig DrawConfig(Rng* rng) {
  FuzzConfig config;
  config.xi = static_cast<Index>(rng->NextInt(6, 16));
  config.window =
      static_cast<Index>(rng->NextInt(2 * config.xi + 4, 2 * config.xi + 50));
  config.slide = static_cast<Index>(rng->NextInt(1, config.window));
  config.points = config.window + static_cast<Index>(rng->NextInt(40, 160));
  config.streams = static_cast<std::size_t>(rng->NextInt(2, 5));
  config.haversine = rng->NextInt(0, 1) == 0;
  // Join on in about half the rounds, with a radius wide enough to flip.
  config.join_epsilon =
      rng->NextInt(0, 1) == 0
          ? (config.haversine ? 3000.0 : 250.0)
          : -1.0;
  return config;
}

Trajectory MakeData(const FuzzConfig& config, std::size_t stream,
                    std::uint64_t seed) {
  if (config.haversine) {
    DatasetOptions options;
    options.length = config.points;
    options.seed = seed + stream;
    return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
  }
  return testing_util::MakePlanarWalk(config.points, seed + stream);
}

TEST(FleetParityFuzz, RandomInterleavedSchedulesMatchMonitorsAndJoin) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260731);
  const int rounds = testing_util::FuzzRounds(5);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.window
                 << " slide=" << config.slide << " xi=" << config.xi
                 << " n=" << config.points << " streams=" << config.streams
                 << (config.haversine ? " haversine" : " euclidean")
                 << " eps=" << config.join_epsilon);

    const HaversineMetric haversine;
    const EuclideanMetric euclidean;
    const GroundMetric& metric =
        config.haversine ? static_cast<const GroundMetric&>(haversine)
                         : static_cast<const GroundMetric&>(euclidean);

    StreamOptions stream_options;
    stream_options.window_length = config.window;
    stream_options.slide_step = config.slide;
    stream_options.min_length_xi = config.xi;

    std::vector<Trajectory> data;
    for (std::size_t s = 0; s < config.streams; ++s) {
      data.push_back(
          MakeData(config, s, seed + 2000 + 100 * static_cast<std::uint64_t>(
                                                      round)));
    }

    // Random interleaving: a shuffled multiset of per-stream cursors.
    std::vector<std::size_t> schedule;
    for (std::size_t s = 0; s < config.streams; ++s) {
      for (Index k = 0; k < config.points; ++k) schedule.push_back(s);
    }
    for (std::size_t k = schedule.size(); k > 1; --k) {
      std::swap(schedule[k - 1], schedule[static_cast<std::size_t>(
                                     rng.NextInt(0, k - 1))]);
    }

    std::vector<MotifFleetEngine> monitors;
    for (std::size_t s = 0; s < config.streams; ++s) {
      auto monitor = testing_util::OneMemberFleet(stream_options, metric);
      ASSERT_TRUE(monitor.ok()) << monitor.status();
      monitors.push_back(std::move(monitor).value());
    }

    FleetOptions serial_options;
    serial_options.stream = stream_options;
    serial_options.join_epsilon = config.join_epsilon;
    FleetOptions threaded_options = serial_options;
    threaded_options.stream.threads = 4;

    auto serial = MotifFleetEngine::Create(serial_options, metric);
    auto threaded = MotifFleetEngine::Create(threaded_options, metric);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(threaded.ok()) << threaded.status();
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, serial.value().AddStream().value());
      ASSERT_EQ(s, threaded.value().AddStream().value());
    }

    std::vector<Index> cursor(config.streams, 0);
    std::vector<JoinPair> accumulated;
    std::map<std::size_t, Trajectory> snapshots;
    int slides = 0;
    for (const std::size_t s : schedule) {
      const Point& p = data[s][cursor[s]++];
      auto mu = testing_util::SoleUpdate(monitors[s].Push(0, p));
      auto su = serial.value().Push(s, p);
      auto tu = threaded.value().Push(s, p);
      ASSERT_TRUE(mu.ok()) << mu.status();
      ASSERT_TRUE(su.ok()) << su.status();
      ASSERT_TRUE(tu.ok()) << tu.status();

      const bool monitor_slid = mu.value().has_value();
      ASSERT_EQ(monitor_slid ? 1u : 0u, su.value().updates.size());
      ASSERT_EQ(monitor_slid ? 1u : 0u, tu.value().updates.size());
      if (!monitor_slid) continue;
      ++slides;

      const StreamUpdate& expected = *mu.value();
      for (const auto* fleet_update :
           {&su.value().updates[0], &tu.value().updates[0]}) {
        ASSERT_EQ(s, fleet_update->stream);
        const StreamUpdate& u = fleet_update->update;
        EXPECT_EQ(expected.window_start, u.window_start);
        EXPECT_EQ(expected.motif.best, u.motif.best);
        EXPECT_EQ(expected.motif.distance, u.motif.distance);
        EXPECT_EQ(expected.seeded, u.seeded);
        EXPECT_EQ(expected.carried, u.carried);
      }
      // DP-effort parity is serial-vs-monitor (threaded batches may
      // legitimately count differently, see RunSubsetQueue's contract).
      EXPECT_EQ(expected.stats.dfd_cells_computed,
                su.value().updates[0].update.stats.dfd_cells_computed);

      // Join bookkeeping on the serial fleet.
      if (config.join_epsilon >= 0.0) {
        snapshots[s] = serial.value().WindowTrajectory(s);
        for (const JoinPair& pair : su.value().join_delta.entered) {
          accumulated.push_back(pair);
        }
        for (const JoinPair& pair : su.value().join_delta.left) {
          const auto at =
              std::find(accumulated.begin(), accumulated.end(), pair);
          ASSERT_NE(accumulated.end(), at) << "left a pair never entered";
          accumulated.erase(at);
        }
        // Serial and threaded fleets agree on the delta too.
        EXPECT_EQ(su.value().join_delta.entered,
                  tu.value().join_delta.entered);
        EXPECT_EQ(su.value().join_delta.left, tu.value().join_delta.left);
      }
    }
    EXPECT_GT(slides, 0);

    // Accumulated join deltas == from-scratch self-join over the
    // last-searched snapshots (dense ids by construction of the check).
    if (config.join_epsilon >= 0.0 && snapshots.size() == config.streams) {
      std::vector<Trajectory> windows;
      for (std::size_t s = 0; s < config.streams; ++s) {
        windows.push_back(snapshots.at(s));
      }
      auto scratch =
          DfdSelfJoin(windows, metric, serial_options.JoinConfig());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      std::sort(accumulated.begin(), accumulated.end(),
                [](const JoinPair& a, const JoinPair& b) {
                  return a.li != b.li ? a.li < b.li : a.ri < b.ri;
                });
      EXPECT_EQ(scratch.value(), accumulated);
      EXPECT_EQ(scratch.value(), serial.value().CurrentJoinMatches());
    }
  }
}

}  // namespace
}  // namespace frechet_motif
