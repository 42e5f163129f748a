// Randomized crash-recovery parity for the durable fleet. Every round
// builds a fault-free oracle (a plain MotifFleetEngine, or a never-
// killed DurableFleet) and a fault run on a FaultFs, injects crashes —
// op-level tears inside the commit protocol, hard kills between calls,
// bit flips on stable snapshots, unsynced journal tails — recovers, and
// requires the recovered engine to end **byte-identical** to the
// oracle's `Snapshot()`, join matches included.
//
// The resume rule after a crash is the one a real writer would use: the
// recovered per-stream `ingest_stats().released` counts say how far the
// committed global prefix got, and the feed re-pushes everything after
// it. Committed records always form a prefix of the call sequence (the
// tolerant tail parse stops at the first torn frame), so counts are
// enough to realign an interleaved schedule.
//
// Failures print the fuzz seed; rerun with FMOTIF_FUZZ_SEED=<seed>.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "durable/durable_fleet.h"
#include "fault_fs.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "stream/motif_fleet_engine.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

// One fleet member. A default member registers through the plain
// AddStream(); the others carry their own options (a cross pair takes two
// stream ids).
struct MemberSpec {
  bool cross = false;
  bool own_options = false;
  double approx_eps = 0.0;
};

struct FuzzConfig {
  FleetOptions options;
  std::vector<MemberSpec> members;
  std::size_t streams = 0;  // stream ids across all members
  Index points = 0;         // per stream id
};

FuzzConfig DrawConfig(Rng* rng, Index reorder_capacity) {
  FuzzConfig config;
  const Index xi = static_cast<Index>(rng->NextInt(6, 8));
  config.options.stream.min_length_xi = xi;
  config.options.stream.window_length =
      static_cast<Index>(rng->NextInt(2 * xi + 4, 2 * xi + 14));
  config.options.stream.slide_step = static_cast<Index>(
      rng->NextInt(1, std::max<Index>(1, config.options.stream.window_length / 3)));
  config.options.reorder_capacity = reorder_capacity;
  // Join on in about half the rounds, radius wide enough to flip pairs.
  config.options.join_epsilon = rng->NextInt(0, 1) == 0 ? 250.0 : -1.0;
  config.streams = static_cast<std::size_t>(rng->NextInt(1, 3));
  config.members.assign(config.streams, MemberSpec());
  config.points = config.options.stream.window_length +
                  static_cast<Index>(rng->NextInt(30, 60));
  return config;
}

// Redraws the members as a heterogeneous fleet: cross pairs and
// per-member approximation ε, each member with its own options.
void DrawHeterogeneousMembers(Rng* rng, FuzzConfig* config) {
  const double kEps[] = {0.0, 0.05, 0.2};
  config->streams = 0;
  for (MemberSpec& member : config->members) {
    member.cross = rng->NextInt(0, 1) == 1;
    member.own_options = true;
    member.approx_eps = kEps[rng->NextInt(0, 2)];
    config->streams += member.cross ? 2 : 1;
  }
}

// Registers the members `engine` does not have yet, stopping at the
// first failure (a crash injected mid-registration).
Status AddMissingMembers(const FuzzConfig& config, MotifFleetEngine* engine) {
  for (std::size_t m = engine->member_count(); m < config.members.size();
       ++m) {
    const MemberSpec& member = config.members[m];
    StreamOptions options = config.options.stream;
    options.approximation_epsilon = member.approx_eps;
    const Status added =
        !member.own_options ? engine->AddStream().status()
        : member.cross      ? engine->AddCrossPair(options).status()
                            : engine->AddStream(options).status();
    FM_RETURN_IF_ERROR(added);
  }
  return Status::Ok();
}

// A shuffled multiset of stream ids: each stream appears `points` times.
std::vector<std::size_t> DrawSchedule(Rng* rng, const FuzzConfig& config) {
  std::vector<std::size_t> schedule;
  for (std::size_t s = 0; s < config.streams; ++s) {
    for (Index k = 0; k < config.points; ++k) schedule.push_back(s);
  }
  for (std::size_t k = schedule.size(); k > 1; --k) {
    std::swap(schedule[k - 1],
              schedule[static_cast<std::size_t>(rng->NextInt(0, k - 1))]);
  }
  return schedule;
}

std::vector<Trajectory> DrawData(const FuzzConfig& config,
                                 std::uint64_t data_seed) {
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < config.streams; ++s) {
    data.push_back(testing_util::MakePlanarWalk(config.points, data_seed + s));
  }
  return data;
}

// The master parity check: the whole engine state — ring matrices,
// bounds, scheduler, join cache, counters — serialized and compared as
// bytes, plus the join's current matches for a semantic cross-check.
void ExpectSameEngineState(const MotifFleetEngine& expected,
                           const MotifFleetEngine& actual) {
  std::string want;
  std::string got;
  ASSERT_TRUE(expected.Snapshot(&want).ok());
  ASSERT_TRUE(actual.Snapshot(&got).ok());
  EXPECT_TRUE(want == got)
      << "engine snapshots diverge (" << want.size() << " vs " << got.size()
      << " bytes)";
  EXPECT_EQ(expected.CurrentJoinMatches(), actual.CurrentJoinMatches());
}

// Round family A: crashes injected at the filesystem-operation level,
// landing inside append/sync/rename windows of the commit protocol —
// including during Open's recovery checkpoint and during rotation.
// `heterogeneous` redraws every round's fleet with cross pairs and
// per-member ε.
void RunOpLevelCrashRounds(std::uint64_t seed, int rounds,
                           bool heterogeneous) {
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    if (heterogeneous) DrawHeterogeneousMembers(&rng, &config);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " slide=" << config.options.stream.slide_step
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 1000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    std::vector<std::size_t> cursor(config.streams, 0);
    ASSERT_TRUE(AddMissingMembers(config, &oracle.value()).ok());
    ASSERT_EQ(config.streams, oracle.value().stream_count());
    for (const std::size_t s : schedule) {
      ASSERT_TRUE(oracle.value().Push(s, data[s][static_cast<Index>(cursor[s]++)]).ok());
    }

    testing_util::FaultFs fs(seed + 77 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "state";
    durable.fs = &fs;
    durable.checkpoint_interval_records =
        static_cast<std::uint64_t>(rng.NextInt(5, 20));
    int crashes = 0;
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 500) << "crash loop did not converge";
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      if (!fleet.ok()) {
        ASSERT_TRUE(fs.crashed()) << fleet.status();
        fs.Restart();
        ++crashes;
        continue;
      }
      if (!AddMissingMembers(config, &fleet.value()).ok() || fs.crashed()) {
        ASSERT_TRUE(fs.crashed());
        fs.Restart();
        ++crashes;
        continue;
      }
      ASSERT_EQ(config.streams, fleet.value().stream_count());

      // Resume where the committed prefix ended.
      for (std::size_t s = 0; s < config.streams; ++s) {
        cursor[s] = static_cast<std::size_t>(
            fleet.value().engine().ingest_stats(s).released);
      }
      std::vector<std::size_t> seen(config.streams, 0);
      bool armed = false;
      int pushed = 0;
      for (const std::size_t s : schedule) {
        const std::size_t index = seen[s]++;
        if (index < cursor[s]) continue;
        // Arm at most one crash per attempt, and only once this attempt
        // has committed something — guarantees forward progress.
        if (!armed && pushed > 0 && rng.NextInt(0, 7) == 0) {
          fs.CrashAfter(rng.NextInt(1, 25));
          armed = true;
        }
        auto push = fleet.value().Push(s, data[s][static_cast<Index>(index)]);
        if (!push.ok()) {
          ASSERT_TRUE(fs.crashed()) << push.status();
          break;
        }
        ++pushed;
        if (rng.NextInt(0, 19) == 0) {
          const Status rotated = fleet.value().Checkpoint();
          if (!rotated.ok()) {
            ASSERT_TRUE(fs.crashed()) << rotated;
            break;
          }
        }
      }
      if (fs.crashed()) {
        fs.Restart();
        ++crashes;
        continue;
      }
      ExpectSameEngineState(oracle.value(), fleet.value().engine());
      break;
    }
    // A fault-injection fuzz that never crashes tests nothing; with a
    // crash armed on ~1/8 of pushes this is deterministic given the seed.
    EXPECT_GT(crashes, 0);
  }
}

TEST(DurableRecoveryFuzz, OpLevelCrashesRecoverBitExact) {
  RunOpLevelCrashRounds(testing_util::FuzzSeed(20260801),
                        testing_util::FuzzRounds(4), /*heterogeneous=*/false);
}

// Cross pairs and per-member ε: the journal records each member's
// options, so recovery rebuilds the same heterogeneous fleet.
TEST(DurableRecoveryFuzz, HeterogeneousFleetRecoversBitExact) {
  RunOpLevelCrashRounds(testing_util::FuzzSeed(20260805),
                        testing_util::FuzzRounds(3), /*heterogeneous=*/true);
}

// How a family-B round feeds its segments.
struct SegmentFeed {
  /// End every segment with Flush, so the reorder buffers are empty at
  /// each kill; otherwise only the last segment flushes and every kill
  /// lands while the buffers hold points.
  bool flush_before_kill = true;
  /// Now and then replace a push with a batch that fails part-way: the
  /// point timestamped, then the same point bare while its stream's
  /// reorder buffer is non-empty. The first arrival's effects stand.
  bool part_failed_batches = false;
};

// Round family B: out-of-order timestamped feeds through the reorder
// buffers, hard kills between calls at segment boundaries. The oracle —
// a never-killed DurableFleet fed identically — must match right after
// every recovery and at the end of every segment.
void RunReorderedSegmentRounds(std::uint64_t seed, int rounds,
                               SegmentFeed feed) {
  Rng rng(seed);
  const EuclideanMetric metric;
  int buffered_kills = 0;
  int failed_batches = 0;
  for (int round = 0; round < rounds; ++round) {
    const Index capacity = static_cast<Index>(rng.NextInt(2, 5));
    const FuzzConfig config = DrawConfig(&rng, capacity);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " capacity=" << capacity << " streams=" << config.streams
                 << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 2000 + 10 * static_cast<std::uint64_t>(round));

    // Per-stream timestamps: mostly increasing with bounded disorder
    // from random adjacent swaps (occasionally beyond the buffer bound,
    // so deterministic late-drops happen too).
    std::vector<std::vector<double>> stamps(config.streams);
    for (std::size_t s = 0; s < config.streams; ++s) {
      for (Index k = 0; k < config.points; ++k) {
        stamps[s].push_back(static_cast<double>(k));
      }
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k + 1 < stamps[s].size(); ++k) {
          if (rng.NextInt(0, 2) == 0) std::swap(stamps[s][k], stamps[s][k + 1]);
        }
      }
    }

    testing_util::FaultFs oracle_fs(seed + 3 * static_cast<std::uint64_t>(round));
    DurableOptions oracle_durable;
    oracle_durable.state_dir = "oracle";
    oracle_durable.fs = &oracle_fs;
    auto oracle = DurableFleet::Open(config.options, metric, oracle_durable);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }

    testing_util::FaultFs fs(seed + 5 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "state";
    durable.fs = &fs;
    durable.checkpoint_interval_records =
        static_cast<std::uint64_t>(rng.NextInt(8, 32));

    const int segments = static_cast<int>(rng.NextInt(3, 5));
    std::vector<std::size_t> seen(config.streams, 0);
    std::size_t fed = 0;
    for (int segment = 0; segment < segments; ++segment) {
      if (segment > 0) fs.Restart();  // hard kill between calls
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      if (segment == 0) {
        for (std::size_t s = 0; s < config.streams; ++s) {
          ASSERT_EQ(s, fleet.value().AddStream().value());
        }
      } else {
        ExpectSameEngineState(oracle.value(), fleet.value());
      }
      ASSERT_EQ(config.streams, fleet.value().stream_count());
      const std::size_t until = segment + 1 == segments
                                    ? schedule.size()
                                    : schedule.size() * (segment + 1) / segments;
      for (; fed < until; ++fed) {
        const std::size_t s = schedule[fed];
        const std::size_t index = seen[s]++;
        const Point& p = data[s][static_cast<Index>(index)];
        const double ts = stamps[s][index];
        if (feed.part_failed_batches && fleet.value().stream_buffered(s) > 0 &&
            rng.NextInt(0, 9) == 0) {
          const std::vector<FleetArrival> mixed = {
              FleetArrival{s, p, true, ts}, FleetArrival{s, p, false, 0.0}};
          ASSERT_FALSE(fleet.value().Ingest(mixed).ok());
          ASSERT_FALSE(oracle.value().Ingest(mixed).ok());
          ++failed_batches;
          continue;
        }
        auto live = fleet.value().Push(s, p, ts);
        auto want = oracle.value().Push(s, p, ts);
        ASSERT_TRUE(live.ok()) << live.status();
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_EQ(want.value().updates.size(), live.value().updates.size());
      }
      if (feed.flush_before_kill || segment + 1 == segments) {
        ASSERT_TRUE(fleet.value().Flush().ok());
        ASSERT_TRUE(oracle.value().Flush().ok());
      } else if (fleet.value().stats().reorder_buffered > 0) {
        ++buffered_kills;
      }
      ExpectSameEngineState(oracle.value().engine(), fleet.value().engine());
    }
  }
  // The variants must have exercised what they exist for.
  if (!feed.flush_before_kill) {
    EXPECT_GT(buffered_kills, 0);
  }
  if (feed.part_failed_batches) {
    EXPECT_GT(failed_batches, 0);
  }
}

TEST(DurableRecoveryFuzz, ReorderedSegmentsSurviveKillsBetweenCalls) {
  RunReorderedSegmentRounds(testing_util::FuzzSeed(20260802),
                            testing_util::FuzzRounds(3), SegmentFeed());
}

// Kills land while the reorder buffers hold points: each Ingest record
// is the raw batch, so the buffered points come back too.
TEST(DurableRecoveryFuzz, BufferedPointsSurviveKills) {
  SegmentFeed feed;
  feed.flush_before_kill = false;
  RunReorderedSegmentRounds(testing_util::FuzzSeed(20260806),
                            testing_util::FuzzRounds(3), feed);
}

// Batches failing part-way are journaled with a failure flag; replay
// fails them at the same arrival, so their partial effects come back.
TEST(DurableRecoveryFuzz, PartFailedBatchesReplayTheirPartialEffects) {
  SegmentFeed feed;
  feed.flush_before_kill = false;
  feed.part_failed_batches = true;
  RunReorderedSegmentRounds(testing_util::FuzzSeed(20260807),
                            testing_util::FuzzRounds(3), feed);
}

// Round family C: a bit flipped in the newest snapshot on stable
// storage. Recovery must fall back one generation and rebuild the same
// state from the older snapshot plus the full journal chain — never
// silently restart empty (that is a separate DataLoss test in
// durable_test.cc when no generation validates).
TEST(DurableRecoveryFuzz, CorruptSnapshotFallsBackAGeneration) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260803);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 4000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }

    testing_util::FaultFs fs(seed + 11 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "cstate";
    durable.fs = &fs;
    durable.checkpoint_interval_records = 0;  // explicit checkpoints only

    std::uint64_t generation = 0;
    std::size_t tail_records = 0;
    {
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      for (std::size_t s = 0; s < config.streams; ++s) {
        ASSERT_EQ(s, fleet.value().AddStream().value());
      }
      std::vector<std::size_t> cursor(config.streams, 0);
      const std::size_t half = schedule.size() / 2;
      for (std::size_t k = 0; k < schedule.size(); ++k) {
        if (k == half) {
          ASSERT_TRUE(fleet.value().Checkpoint().ok());
        }
        const std::size_t s = schedule[k];
        const Point& p = data[s][static_cast<Index>(cursor[s]++)];
        ASSERT_TRUE(fleet.value().Push(s, p).ok());
        ASSERT_TRUE(oracle.value().Push(s, p).ok());
        if (k >= half) ++tail_records;
      }
      generation = fleet.value().generation();
      ASSERT_GE(generation, 2u);
    }
    fs.Restart();  // everything was synced; this is a clean shutdown

    char name[64];
    std::snprintf(name, sizeof(name), "cstate/snap-%06llu",
                  static_cast<unsigned long long>(generation));
    ASSERT_TRUE(fs.FlipBit(name, rng.NextUint64()));

    auto reopened = DurableFleet::Open(config.options, metric, durable);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_TRUE(reopened.value().recovery().restored_snapshot);
    // Fallback replays the previous generation's journal too, not just
    // the records written after the (corrupt) newest snapshot.
    EXPECT_GT(reopened.value().recovery().replayed_records, tail_records);
    ExpectSameEngineState(oracle.value(), reopened.value().engine());
  }
}

// Round family D: `sync_each_record = false`. A hard kill may lose an
// unsynced journal tail — but only the tail: recovery lands on a clean
// prefix, and re-pushing from the recovered released counts reconverges
// on the oracle.
TEST(DurableRecoveryFuzz, UnsyncedJournalTailLosesOnlyTheTail) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260804);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const FuzzConfig config = DrawConfig(&rng, /*reorder_capacity=*/0);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round
                 << ": W=" << config.options.stream.window_length
                 << " streams=" << config.streams << " n=" << config.points
                 << " eps=" << config.options.join_epsilon);
    const std::vector<std::size_t> schedule = DrawSchedule(&rng, config);
    const std::vector<Trajectory> data =
        DrawData(config, seed + 6000 + 10 * static_cast<std::uint64_t>(round));

    auto oracle = MotifFleetEngine::Create(config.options, metric);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    std::vector<std::size_t> cursor(config.streams, 0);
    for (std::size_t s = 0; s < config.streams; ++s) {
      ASSERT_EQ(s, oracle.value().AddStream().value());
    }
    for (const std::size_t s : schedule) {
      ASSERT_TRUE(oracle.value().Push(s, data[s][static_cast<Index>(cursor[s]++)]).ok());
    }

    testing_util::FaultFs fs(seed + 13 * static_cast<std::uint64_t>(round));
    DurableOptions durable;
    durable.state_dir = "dstate";
    durable.fs = &fs;
    durable.sync_each_record = false;
    durable.checkpoint_interval_records = 0;  // keep the tail unsynced

    const std::size_t prefix =
        static_cast<std::size_t>(rng.NextInt(1, schedule.size() - 1));
    {
      auto fleet = DurableFleet::Open(config.options, metric, durable);
      ASSERT_TRUE(fleet.ok()) << fleet.status();
      for (std::size_t s = 0; s < config.streams; ++s) {
        ASSERT_EQ(s, fleet.value().AddStream().value());
      }
      std::vector<std::size_t> seen(config.streams, 0);
      for (std::size_t k = 0; k < prefix; ++k) {
        const std::size_t s = schedule[k];
        ASSERT_TRUE(fleet.value().Push(s, data[s][static_cast<Index>(seen[s]++)]).ok());
      }
    }
    fs.Restart();  // hard kill: the unsynced tail collapses

    auto fleet = DurableFleet::Open(config.options, metric, durable);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    ASSERT_EQ(config.streams, fleet.value().stream_count());
    std::size_t recovered = 0;
    for (std::size_t s = 0; s < config.streams; ++s) {
      cursor[s] = static_cast<std::size_t>(
          fleet.value().engine().ingest_stats(s).released);
      recovered += cursor[s];
    }
    // Only the tail may be gone — never more than was pushed, and the
    // committed records form a prefix of the schedule.
    ASSERT_LE(recovered, prefix);
    std::vector<std::size_t> seen(config.streams, 0);
    for (const std::size_t s : schedule) {
      const std::size_t index = seen[s]++;
      if (index < cursor[s]) continue;
      ASSERT_TRUE(fleet.value().Push(s, data[s][static_cast<Index>(index)]).ok());
    }
    ASSERT_TRUE(fleet.value().Sync().ok());
    ExpectSameEngineState(oracle.value(), fleet.value().engine());
  }
}

}  // namespace
}  // namespace frechet_motif
