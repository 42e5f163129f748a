// Tests of the fleet streaming engine and its components: the
// dirty/staleness SearchScheduler, the watermark IngestFrontend, parity
// of a multi-stream MotifFleetEngine against independent one-member
// fleets, budgeted slide coalescing, and the incremental ε-join deltas.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "join/similarity_join.h"
#include "motif/motif.h"
#include "stream/ingest_frontend.h"
#include "stream/motif_fleet_engine.h"
#include "stream/search_scheduler.h"
#include "stream_test_util.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

Trajectory GeoWalk(Index n, std::uint64_t seed) {
  DatasetOptions options;
  options.length = n;
  options.seed = seed;
  return MakeDataset(DatasetKind::kGeoLifeLike, options).value();
}

// --- SearchScheduler ---------------------------------------------------------

TEST(SearchScheduler, OrdersByDirtyAppendsThenStalenessThenId) {
  SearchScheduler scheduler;
  ASSERT_EQ(0u, scheduler.Register());
  ASSERT_EQ(1u, scheduler.Register());
  ASSERT_EQ(2u, scheduler.Register());
  ASSERT_EQ(3u, scheduler.Register());

  // Stream 1 is dirtiest; 0 and 2 tie on dirt but 2 was searched less
  // recently (never); 3 ties with 0 on everything except id.
  scheduler.NoteSearched(0);
  scheduler.NoteSearched(3);
  scheduler.NoteSearched(0);  // 0 searched most recently
  for (int k = 0; k < 3; ++k) scheduler.NoteAppend(1);
  scheduler.NoteAppend(0);
  scheduler.NoteAppend(2);
  scheduler.NoteAppend(3);
  for (std::size_t id = 0; id < 4; ++id) scheduler.MarkDue(id);

  const std::vector<std::size_t> order = scheduler.DrainOrder();
  ASSERT_EQ(4u, order.size());
  EXPECT_EQ(1u, order[0]);  // dirtiest
  EXPECT_EQ(2u, order[1]);  // never searched => most stale
  EXPECT_EQ(3u, order[2]);  // searched before 0's second search
  EXPECT_EQ(0u, order[3]);
}

TEST(SearchScheduler, NoteSearchedClearsDueAndDirt) {
  SearchScheduler scheduler;
  scheduler.Register();
  scheduler.NoteAppend(0);
  scheduler.MarkDue(0);
  EXPECT_TRUE(scheduler.IsDue(0));
  EXPECT_EQ(1u, scheduler.due_count());
  scheduler.NoteSearched(0);
  EXPECT_FALSE(scheduler.IsDue(0));
  EXPECT_EQ(0u, scheduler.due_count());
  EXPECT_TRUE(scheduler.DrainOrder().empty());
}

// --- IngestFrontend ----------------------------------------------------------

struct SinkLog {
  std::vector<double> timestamps;
  IngestFrontend::Sink AsSink() {
    return [this](const Point&, const double* ts) -> Status {
      timestamps.push_back(ts != nullptr ? *ts : -1.0);
      return Status::Ok();
    };
  }
};

TEST(IngestFrontend, ReordersWithinCapacity) {
  IngestFrontend frontend(/*reorder_capacity=*/3);
  SinkLog log;
  const Point p = LatLon(0, 0);
  // Arrivals 2, 1, 3, 0-late?, ... shuffled within a window of 3.
  for (const double ts : {2.0, 1.0, 3.0, 5.0, 4.0, 6.0, 7.0}) {
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}),
            log.timestamps);
  EXPECT_EQ(0, frontend.stats().late_dropped);
  EXPECT_EQ(2, frontend.stats().reordered);
  EXPECT_EQ(7, frontend.stats().released);
}

TEST(IngestFrontend, DropsBelowWatermarkAndCounts) {
  IngestFrontend frontend(/*reorder_capacity=*/2);
  SinkLog log;
  const Point p = LatLon(0, 0);
  for (const double ts : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  // Capacity 2 => 1, 2, 3 already released; 2.5 is below the watermark.
  const double late = 2.5;
  ASSERT_TRUE(frontend.Offer(p, &late, log.AsSink()).ok());
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}), log.timestamps);
  EXPECT_EQ(1, frontend.stats().late_dropped);
}

TEST(IngestFrontend, InOrderFeedPassesThroughUnchanged) {
  IngestFrontend frontend(/*reorder_capacity=*/4);
  SinkLog log;
  const Point p = LatLon(0, 0);
  for (const double ts : {1.0, 2.0, 2.0, 3.0}) {  // equal stamps allowed
    ASSERT_TRUE(frontend.Offer(p, &ts, log.AsSink()).ok());
  }
  ASSERT_TRUE(frontend.Flush(log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{1.0, 2.0, 2.0, 3.0}), log.timestamps);
  EXPECT_EQ(0, frontend.stats().reordered);
  EXPECT_EQ(0, frontend.stats().late_dropped);
}

TEST(IngestFrontend, RejectsNonFiniteTimestamps) {
  // NaN keys would break the reorder buffer's ordering invariant and a
  // NaN watermark would silently disable late-drop.
  SinkLog log;
  const Point p = LatLon(0, 0);
  const double nan_ts = std::numeric_limits<double>::quiet_NaN();
  const double inf_ts = std::numeric_limits<double>::infinity();
  IngestFrontend buffered(2);
  EXPECT_FALSE(buffered.Offer(p, &nan_ts, log.AsSink()).ok());
  EXPECT_FALSE(buffered.Offer(p, &inf_ts, log.AsSink()).ok());
  IngestFrontend pass_through(0);
  EXPECT_FALSE(pass_through.Offer(p, &nan_ts, log.AsSink()).ok());
  EXPECT_TRUE(log.timestamps.empty());
}

TEST(IngestFrontend, ZeroCapacityIsPassThrough) {
  IngestFrontend frontend(0);
  SinkLog log;
  const Point p = LatLon(0, 0);
  const double t1 = 5.0;
  const double t0 = 1.0;  // out of order, nothing to fix it with
  ASSERT_TRUE(frontend.Offer(p, &t1, log.AsSink()).ok());
  ASSERT_TRUE(frontend.Offer(p, &t0, log.AsSink()).ok());
  EXPECT_EQ((std::vector<double>{5.0}), log.timestamps);
  EXPECT_EQ(1, frontend.stats().late_dropped);
}

// --- Fleet <-> one-member fleets parity --------------------------------------
//
// The reference for each stream is an independent one-member fleet fed
// one point per Push (the "monitor" of the test names): sharing one
// arrival loop, scheduler and pool must not change any stream's reports.

StreamOptions SmallStreamOptions() {
  StreamOptions options;
  options.window_length = 70;
  options.slide_step = 10;
  options.min_length_xi = 10;
  return options;
}

void ExpectUpdateEq(const StreamUpdate& expected, const StreamUpdate& actual) {
  EXPECT_EQ(expected.window_start, actual.window_start);
  EXPECT_EQ(expected.motif.best, actual.motif.best);
  EXPECT_EQ(expected.motif.distance, actual.motif.distance);
  EXPECT_EQ(expected.seeded, actual.seeded);
  EXPECT_EQ(expected.carried, actual.carried);
  EXPECT_EQ(expected.stats.dfd_cells_computed, actual.stats.dfd_cells_computed);
}

TEST(FleetEngine, RoundRobinBitIdenticalToIndependentMonitors) {
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  constexpr std::size_t kStreams = 3;
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(220, 100 + s));
  }

  std::vector<MotifFleetEngine> monitors;
  std::vector<std::vector<StreamUpdate>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    auto monitor = testing_util::OneMemberFleet(stream_options, metric);
    ASSERT_TRUE(monitor.ok()) << monitor.status();
    monitors.push_back(std::move(monitor).value());
  }

  FleetOptions options;
  options.stream = stream_options;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
  }

  std::vector<std::vector<StreamUpdate>> actual(kStreams);
  for (Index k = 0; k < 220; ++k) {
    std::vector<FleetArrival> batch;
    for (std::size_t s = 0; s < kStreams; ++s) {
      auto mu = testing_util::SoleUpdate(monitors[s].Push(0, data[s][k]));
      ASSERT_TRUE(mu.ok()) << mu.status();
      if (mu.value().has_value()) expected[s].push_back(*mu.value());
      batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
    }
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      actual[fu.stream].push_back(fu.update);
    }
  }

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(expected[s].size(), actual[s].size()) << "stream " << s;
    for (std::size_t k = 0; k < expected[s].size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " update " << k);
      ExpectUpdateEq(expected[s][k], actual[s][k]);
    }
    // Window contents match too.
    EXPECT_EQ(monitors[s].WindowTrajectory(0).points(),
              fleet.value().WindowTrajectory(s).points());
  }
}

TEST(FleetEngine, MidBatchParityGuardRunsDueSearchBeforeFurtherAppends) {
  // Feed one stream's whole trajectory as a single Ingest batch: searches
  // must fire at exactly the same positions (same windows) as a
  // one-member fleet pushed point by point.
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  const Trajectory t = GeoWalk(200, 7);

  auto monitor = testing_util::OneMemberFleet(stream_options, metric);
  ASSERT_TRUE(monitor.ok()) << monitor.status();
  std::vector<StreamUpdate> expected;
  for (Index k = 0; k < t.size(); ++k) {
    auto mu = testing_util::SoleUpdate(monitor.value().Push(0, t[k]));
    ASSERT_TRUE(mu.ok());
    if (mu.value().has_value()) expected.push_back(*mu.value());
  }

  FleetOptions options;
  options.stream = stream_options;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  std::vector<FleetArrival> batch;
  for (Index k = 0; k < t.size(); ++k) {
    batch.push_back(FleetArrival{0, t[k], false, 0.0});
  }
  auto report = fleet.value().Ingest(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(expected.size(), report.value().updates.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    ExpectUpdateEq(expected[k], report.value().updates[k].update);
  }
}

TEST(FleetEngine, ReorderedFeedMatchesInOrderMonitor) {
  // Shuffle the arrival order within a disorder bound; a fleet with a
  // reorder buffer of that bound must report exactly what a one-member
  // fleet without one sees on the in-order feed.
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  const Trajectory t = GeoWalk(200, 11);

  auto monitor = testing_util::OneMemberFleet(stream_options, metric);
  ASSERT_TRUE(monitor.ok()) << monitor.status();
  std::vector<StreamUpdate> expected;
  for (Index k = 0; k < t.size(); ++k) {
    auto mu =
        testing_util::SoleUpdate(monitor.value().Push(0, t[k], 10.0 * k));
    ASSERT_TRUE(mu.ok());
    if (mu.value().has_value()) expected.push_back(*mu.value());
  }

  // Deterministic local shuffle: swap adjacent pairs (disorder 1).
  std::vector<Index> order;
  for (Index k = 0; k + 1 < t.size(); k += 2) {
    order.push_back(k + 1);
    order.push_back(k);
  }
  if (t.size() % 2 == 1) order.push_back(t.size() - 1);

  FleetOptions options;
  options.stream = stream_options;
  options.reorder_capacity = 2;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  std::vector<StreamUpdate> actual;
  for (const Index k : order) {
    auto report = fleet.value().Push(0, t[k], 10.0 * k);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      actual.push_back(fu.update);
    }
  }
  auto flushed = fleet.value().Flush();
  ASSERT_TRUE(flushed.ok());
  for (const FleetStreamUpdate& fu : flushed.value().updates) {
    actual.push_back(fu.update);
  }

  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "update " << k);
    ExpectUpdateEq(expected[k], actual[k]);
  }
  EXPECT_EQ(0, fleet.value().stats().late_dropped);
  EXPECT_GT(fleet.value().stats().reordered, 0);
}

TEST(FleetEngine, LateDropsAreCountedAndDoNotCorruptTheWindow) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.reorder_capacity = 2;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  const Trajectory t = GeoWalk(120, 13);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k], 10.0 * k).ok());
  }
  // Far below the watermark: dropped, window untouched.
  const Index before = fleet.value().window_size(0);
  ASSERT_TRUE(fleet.value().Push(0, t[0], 5.0).ok());
  EXPECT_EQ(before, fleet.value().window_size(0));
  EXPECT_EQ(1, fleet.value().stats().late_dropped);
}

// --- Budgeted drains (slide coalescing) -------------------------------------

TEST(FleetEngine, BudgetedDrainCoalescesAndStaysExact) {
  // Eight streams, half of them searched per drain: the budgeted fleet
  // must coalesce slides, keep every answer exact, and spend strictly
  // fewer DP cells than an unbudgeted fleet fed the identical batches.
  const HaversineMetric metric;
  const StreamOptions stream_options = SmallStreamOptions();
  constexpr std::size_t kStreams = 8;
  constexpr int kBudget = 4;
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    data.push_back(GeoWalk(240, 300 + s));
  }

  FleetOptions options;
  options.stream = stream_options;
  auto unbudgeted = MotifFleetEngine::Create(options, metric);
  options.max_searches_per_drain = kBudget;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(unbudgeted.ok());
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
    ASSERT_EQ(s, unbudgeted.value().AddStream().value());
  }

  std::int64_t searches = 0;
  // Ingest one slide period at a time; each call may run at most kBudget
  // searches, and every update must match a from-scratch FindMotif on
  // the window at search time (checked right after the drain, before
  // any further appends).
  for (Index k0 = 0; k0 < 240; k0 += stream_options.slide_step) {
    std::vector<FleetArrival> batch;
    for (Index k = k0;
         k < std::min<Index>(240, k0 + stream_options.slide_step); ++k) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
      }
    }
    ASSERT_TRUE(unbudgeted.value().Ingest(batch).ok());
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_LE(report.value().updates.size(),
              static_cast<std::size_t>(kBudget));
    searches += static_cast<std::int64_t>(report.value().updates.size());
    for (const FleetStreamUpdate& fu : report.value().updates) {
      const Trajectory window = fleet.value().WindowTrajectory(fu.stream);
      auto scratch =
          FindMotif(window, metric, stream_options.BaselineOptions());
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      EXPECT_EQ(scratch.value().best, fu.update.motif.best);
      EXPECT_EQ(scratch.value().distance, fu.update.motif.distance);
    }
  }
  // The budget forced deferrals: slides coalesced, fewer searches than
  // the unbudgeted fleet ran, and fewer DP cells for the same ingest.
  EXPECT_GT(fleet.value().stats().coalesced_slides, 0);
  EXPECT_EQ(0, unbudgeted.value().stats().coalesced_slides);
  const std::int64_t unbudgeted_slides =
      static_cast<std::int64_t>(kStreams) *
      ((240 - stream_options.window_length) / stream_options.slide_step + 1);
  EXPECT_EQ(unbudgeted_slides, unbudgeted.value().stats().searches);
  EXPECT_LT(searches, unbudgeted_slides);
  EXPECT_LT(fleet.value().stats().dfd_cells_computed,
            unbudgeted.value().stats().dfd_cells_computed);
}

// --- Join deltas -------------------------------------------------------------

TEST(FleetEngine, JoinDeltasAccumulateToFromScratchSelfJoin) {
  const HaversineMetric metric;
  StreamOptions stream_options;
  stream_options.window_length = 60;
  stream_options.slide_step = 12;
  stream_options.min_length_xi = 8;

  FleetOptions options;
  options.stream = stream_options;
  options.join_epsilon = 2500.0;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());

  // Streams 0 and 1 replay near-identical commutes (same seed family),
  // stream 2 a different vehicle profile: pairs should enter/leave ε as
  // the windows slide.
  constexpr std::size_t kStreams = 3;
  std::vector<Trajectory> data;
  data.push_back(GeoWalk(220, 41));
  data.push_back(GeoWalk(220, 41));
  {
    DatasetOptions truck;
    truck.length = 220;
    truck.seed = 99;
    data.push_back(MakeDataset(DatasetKind::kTruckLike, truck).value());
  }
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_EQ(s, fleet.value().AddStream().value());
  }

  // Accumulate deltas and re-derive the expected matches from scratch
  // after every report. With one point per stream per batch, drains run
  // at batch end, so the windows at return time are exactly the
  // snapshots the searches (and the join) saw.
  std::vector<JoinPair> accumulated;
  int checks = 0;
  for (Index k = 0; k < 220; ++k) {
    std::vector<FleetArrival> batch;
    for (std::size_t s = 0; s < kStreams; ++s) {
      batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
    }
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const JoinPair& p : report.value().join_delta.entered) {
      accumulated.push_back(p);
    }
    for (const JoinPair& p : report.value().join_delta.left) {
      const auto at = std::find(accumulated.begin(), accumulated.end(), p);
      ASSERT_NE(accumulated.end(), at) << "left a pair never entered";
      accumulated.erase(at);
    }
    if (report.value().updates.empty()) continue;
    ++checks;

    // The engine's own accumulated set matches the delta accumulation.
    std::vector<JoinPair> sorted = accumulated;
    std::sort(sorted.begin(), sorted.end(),
              [](const JoinPair& a, const JoinPair& b) {
                return a.li != b.li ? a.li < b.li : a.ri < b.ri;
              });
    EXPECT_EQ(sorted, fleet.value().CurrentJoinMatches());

    // All streams share one cadence, so every stream searched this batch:
    // the accumulated set must equal a from-scratch self-join over the
    // current windows.
    ASSERT_EQ(kStreams, report.value().updates.size());
    std::vector<Trajectory> windows;
    for (std::size_t s = 0; s < kStreams; ++s) {
      windows.push_back(fleet.value().WindowTrajectory(s));
    }
    auto scratch =
        DfdSelfJoin(windows, metric, options.JoinConfig());
    ASSERT_TRUE(scratch.ok()) << scratch.status();
    EXPECT_EQ(scratch.value(), sorted) << "after batch ending at point " << k;
  }
  EXPECT_GT(checks, 5);
  // At least the identical pair (0,1) must currently match.
  const std::vector<JoinPair> matches = fleet.value().CurrentJoinMatches();
  EXPECT_NE(matches.end(),
            std::find(matches.begin(), matches.end(), JoinPair{0, 1}));
}

// --- API edges ---------------------------------------------------------------

TEST(FleetEngine, ValidatesOptionsAndStreamIds) {
  const HaversineMetric metric;
  FleetOptions bad_window;
  bad_window.stream.window_length = 20;
  bad_window.stream.min_length_xi = 10;
  EXPECT_FALSE(MotifFleetEngine::Create(bad_window, metric).ok());

  FleetOptions bad_budget;
  bad_budget.stream = SmallStreamOptions();
  bad_budget.max_searches_per_drain = -1;
  EXPECT_FALSE(MotifFleetEngine::Create(bad_budget, metric).ok());

  FleetOptions bad_eps;
  bad_eps.stream = SmallStreamOptions();
  bad_eps.join_epsilon = 100.0;
  ASSERT_TRUE(MotifFleetEngine::Create(bad_eps, metric).ok());
  // Negative disables the join; NaN and +inf are rejected, not read as
  // "disabled" or "everything matches".
  bad_eps.join_epsilon = -1.0;
  ASSERT_TRUE(MotifFleetEngine::Create(bad_eps, metric).ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    bad_eps.join_epsilon = bad;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              MotifFleetEngine::Create(bad_eps, metric).status().code())
        << bad;
  }

  FleetOptions ok_options;
  ok_options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(ok_options, metric);
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            fleet.value().Push(0, LatLon(0, 0)).status().code());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  EXPECT_TRUE(fleet.value().Push(0, LatLon(39.9, 116.3)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            fleet.value().Push(7, LatLon(0, 0)).status().code());
}

TEST(FleetEngine, RejectsABadBatchBeforeChangingAnyState) {
  // The whole batch is checked before its first arrival is applied: an
  // unknown stream id, a non-finite coordinate or timestamp, or a point
  // off the globe under haversine anywhere in the batch leaves the engine
  // byte-identical to before the call.
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.reorder_capacity = 2;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  const Trajectory t = GeoWalk(90, 6);
  for (Index k = 0; k < 80; ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k], static_cast<double>(k)).ok());
  }
  std::string before;
  ASSERT_TRUE(fleet.value().Snapshot(&before).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const FleetArrival good{0, t[80], true, 80.0};
  const std::vector<FleetArrival> bad_tails = {
      FleetArrival{3, t[81], true, 81.0},               // unknown stream
      FleetArrival{0, LatLon(nan, 116.3), true, 81.0},  // NaN latitude
      FleetArrival{0, t[81], true, inf},                // infinite stamp
      FleetArrival{0, LatLon(95.0, 116.3), true, 81.0},   // |lat| > 90
      FleetArrival{0, LatLon(39.9, -181.0), true, 81.0},  // |lon| > 180
  };
  for (const FleetArrival& bad : bad_tails) {
    const auto report = fleet.value().Ingest({good, good, bad});
    EXPECT_EQ(StatusCode::kInvalidArgument, report.status().code());
    std::string after;
    ASSERT_TRUE(fleet.value().Snapshot(&after).ok());
    EXPECT_TRUE(before == after) << "a rejected batch changed the engine";
  }
  // The range check is the haversine metric's: planar coordinates are
  // unbounded.
  auto planar = MotifFleetEngine::Create(options, Euclidean());
  ASSERT_TRUE(planar.ok());
  ASSERT_EQ(0u, planar.value().AddStream().value());
  EXPECT_TRUE(planar.value().Push(0, Point(950.0, -4000.0)).ok());
  EXPECT_FALSE(planar.value().Push(0, Point(nan, 0.0)).ok());
}

TEST(StreamingMotifMonitor, RejectsABadBatchBeforeChangingAnyState) {
  // A one-stream fleet is the single-trajectory streaming monitor: a
  // batch ending in an off-globe point, a NaN longitude, or a NaN stamp is
  // rejected before any point of it is ingested.
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto monitor = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(monitor.ok());
  ASSERT_EQ(0u, monitor.value().AddStream().value());
  const Trajectory t = GeoWalk(40, 7);
  std::vector<FleetArrival> batch;
  for (Index k = 0; k < t.size(); ++k) batch.push_back({0, t[k]});
  batch.push_back({0, LatLon(91.0, 0.0)});
  EXPECT_EQ(StatusCode::kInvalidArgument,
            monitor.value().Ingest(batch).status().code());
  EXPECT_EQ(0, monitor.value().stats().points_ingested);
  EXPECT_FALSE(monitor.value().Push(0, LatLon(0.0, std::nan(""))).ok());
  EXPECT_FALSE(monitor.value().Push(0, t[0], std::nan("")).ok());
  EXPECT_EQ(0, monitor.value().stats().points_ingested);
}

TEST(FleetEngine, StatsAggregateAcrossStreams) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream().value());
  const Trajectory t = GeoWalk(150, 5);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k]).ok());
    ASSERT_TRUE(fleet.value().Push(1, t[k]).ok());
  }
  const FleetStats stats = fleet.value().stats();
  EXPECT_EQ(2, stats.streams);
  EXPECT_EQ(300, stats.points_ingested);
  EXPECT_GT(stats.searches, 0);
  EXPECT_GT(stats.ground_distances_computed, 0);
  EXPECT_EQ(stats.searches, 2 * ((150 - 70) / 10 + 1));
  // Identical streams do identical work.
  EXPECT_EQ(fleet.value().stream_stats(0).dfd_cells_computed,
            fleet.value().stream_stats(1).dfd_cells_computed);
}

// --- bound maintenance -------------------------------------------------------

struct RescanRun {
  std::vector<std::int64_t> rescans;   // per member
  std::vector<std::int64_t> searches;  // per member
  Index widest_shift = 0;  // largest window_start advance between searches
};

// Feeds a fixed schedule to three single members and one cross pair
// whose second side is fed unevenly (two points in three rounds, and
// none at all for rounds 150–189, so its slides are one-sided as well as
// two-sided). `rounds_per_call` rounds go into each Ingest call.
RescanRun RunRescanFeed(int budget, Index rounds_per_call) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.max_searches_per_drain = budget;
  auto fleet = MotifFleetEngine::Create(options, metric);
  EXPECT_TRUE(fleet.ok());
  StreamOptions narrow = options.stream;
  narrow.window_length = 60;
  narrow.slide_step = 7;
  narrow.min_length_xi = 8;
  StreamOptions relaxed = options.stream;
  relaxed.approximation_epsilon = 0.1;
  StreamOptions cross = options.stream;
  cross.window_length = 50;
  cross.slide_step = 6;
  cross.min_length_xi = 8;
  EXPECT_EQ(0u, fleet.value().AddStream().value());
  EXPECT_EQ(1u, fleet.value().AddStream(narrow).value());
  EXPECT_EQ(2u, fleet.value().AddStream(relaxed).value());
  EXPECT_EQ(3u, fleet.value().AddCrossPair(cross).value().first);

  constexpr Index kRounds = 300;
  std::vector<Trajectory> data;
  for (std::uint64_t s = 0; s < 5; ++s) data.push_back(GeoWalk(kRounds, 70 + s));
  std::vector<std::int64_t> last_start(4, -1);
  RescanRun run;
  std::vector<FleetArrival> batch;
  for (Index k = 0; k < kRounds; ++k) {
    for (std::size_t s = 0; s < 4; ++s) {
      batch.push_back(FleetArrival{s, data[s][k], false, 0.0});
    }
    if (k % 3 != 0 && (k < 150 || k >= 190)) {
      batch.push_back(FleetArrival{4, data[4][k], false, 0.0});
    }
    if ((k + 1) % rounds_per_call != 0 && k + 1 < kRounds) continue;
    auto report = fleet.value().Ingest(batch);
    EXPECT_TRUE(report.ok()) << report.status();
    batch.clear();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      // Member k's primary stream id is k (the cross pair comes last).
      std::int64_t& last = last_start[fu.stream];
      if (last >= 0) {
        run.widest_shift = std::max<Index>(
            run.widest_shift, static_cast<Index>(fu.update.window_start - last));
      }
      last = fu.update.window_start;
    }
  }
  for (std::size_t stream = 0; stream < 4; ++stream) {
    run.rescans.push_back(fleet.value().stream_stats(stream).bound_rescans);
    run.searches.push_back(fleet.value().stream_stats(stream).searches);
  }
  return run;
}

TEST(FleetEngine, BoundRescansArePinned) {
  // The carry-or-rescan decisions of the incremental bounds are
  // deterministic state: which achiever survives a tie decides every
  // later rescan. These exact per-member counts pin them across
  // refactors of the bound maintenance (values are pinned separately,
  // against a fresh RelaxedBounds::Build, by the stream suites). A
  // single window's Rmin entry 0 covers no row, so its achiever never
  // survives and its empty range is never counted as a rescan.
  const RescanRun parity = RunRescanFeed(/*budget=*/0, /*rounds_per_call=*/1);
  EXPECT_EQ((std::vector<std::int64_t>{30, 7, 10, 2520}), parity.rescans);
  EXPECT_EQ((std::vector<std::int64_t>{24, 35, 24, 59}), parity.searches);

  const RescanRun budgeted = RunRescanFeed(/*budget=*/2, /*rounds_per_call=*/1);
  EXPECT_EQ((std::vector<std::int64_t>{30, 7, 10, 2243}), budgeted.rescans);
  EXPECT_EQ((std::vector<std::int64_t>{24, 34, 24, 53}), budgeted.searches);

  // One search per 15-round call: a member deferred for four or five
  // calls shifts by a whole window or more, which forces the cold
  // rebuild; shorter deferrals carry as usual.
  const RescanRun cold = RunRescanFeed(/*budget=*/1, /*rounds_per_call=*/15);
  EXPECT_GE(cold.widest_shift, 70);
  EXPECT_EQ((std::vector<std::int64_t>{0, 0, 0, 71}), cold.rescans);
  EXPECT_EQ((std::vector<std::int64_t>{4, 4, 4, 5}), cold.searches);
}

// --- heterogeneous fleets ----------------------------------------------------

TEST(FleetEngine, CrossPairOccupiesTwoConsecutiveStreamIds) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  const auto pair = fleet.value().AddCrossPair();
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_EQ(1u, pair.value().first);
  EXPECT_EQ(2u, pair.value().second);
  ASSERT_EQ(3u, fleet.value().AddStream().value());
  EXPECT_EQ(4u, fleet.value().stream_count());
  EXPECT_EQ(3u, fleet.value().member_count());
}

TEST(FleetEngine, PerMemberOptionsAreHonoured) {
  const HaversineMetric metric;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());

  StreamOptions relaxed = options.stream;
  relaxed.approximation_epsilon = 0.25;
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream(relaxed).value());
  const auto pair = fleet.value().AddCrossPair(relaxed);
  ASSERT_TRUE(pair.ok()) << pair.status();

  EXPECT_EQ(0.0, fleet.value().stream_options(0).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(1).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(2).approximation_epsilon);
  EXPECT_EQ(0.25, fleet.value().stream_options(3).approximation_epsilon);

  // An invalid per-member configuration is rejected at Add time.
  StreamOptions bad = options.stream;
  bad.approximation_epsilon = -0.1;
  EXPECT_FALSE(fleet.value().AddStream(bad).ok());
  EXPECT_FALSE(fleet.value().AddCrossPair(bad).ok());
}

TEST(FleetEngine, HeterogeneousMembersMatchIndependentMonitors) {
  // One exact single stream, one ε-relaxed single stream, and one cross
  // pair behind the same scheduler — every member's reports must be
  // bit-identical to a one-member fleet with that member's options.
  const HaversineMetric metric;
  const StreamOptions base = SmallStreamOptions();
  StreamOptions relaxed = base;
  relaxed.approximation_epsilon = 0.1;

  const Trajectory t0 = GeoWalk(200, 41);
  const Trajectory t1 = GeoWalk(200, 42);
  const Trajectory ta = GeoWalk(200, 43);
  const Trajectory tb = GeoWalk(200, 44);

  auto exact_monitor = testing_util::OneMemberFleet(base, metric);
  auto relaxed_monitor = testing_util::OneMemberFleet(relaxed, metric);
  auto cross_monitor =
      testing_util::OneMemberFleet(base, metric, /*cross=*/true);
  ASSERT_TRUE(exact_monitor.ok());
  ASSERT_TRUE(relaxed_monitor.ok());
  ASSERT_TRUE(cross_monitor.ok());

  FleetOptions options;
  options.stream = base;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream().value());
  ASSERT_EQ(1u, fleet.value().AddStream(relaxed).value());
  const auto pair = fleet.value().AddCrossPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_EQ(2u, pair.value().first);
  ASSERT_EQ(3u, pair.value().second);

  // Per-stream expected updates, keyed by primary stream id.
  std::vector<std::vector<StreamUpdate>> expected(3);
  std::vector<std::vector<StreamUpdate>> actual(3);
  const auto collect = [](StatusOr<FleetReport> report,
                          std::vector<StreamUpdate>* into) {
    auto u = testing_util::SoleUpdate(std::move(report));
    ASSERT_TRUE(u.ok()) << u.status();
    if (u.value().has_value()) into->push_back(*u.value());
  };
  for (Index k = 0; k < 200; ++k) {
    collect(exact_monitor.value().Push(0, t0[k]), &expected[0]);
    collect(relaxed_monitor.value().Push(0, t1[k]), &expected[1]);
    collect(cross_monitor.value().Push(0, ta[k]), &expected[2]);
    collect(cross_monitor.value().Push(1, tb[k]), &expected[2]);

    std::vector<FleetArrival> batch;
    batch.push_back(FleetArrival{0, t0[k], false, 0.0});
    batch.push_back(FleetArrival{1, t1[k], false, 0.0});
    batch.push_back(FleetArrival{2, ta[k], false, 0.0});
    batch.push_back(FleetArrival{3, tb[k], false, 0.0});
    auto report = fleet.value().Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      ASSERT_LT(fu.stream, 3u);  // cross reports carry the side-0 id
      actual[fu.stream].push_back(fu.update);
    }
  }

  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(expected[s].size(), actual[s].size()) << "stream " << s;
    for (std::size_t k = 0; k < expected[s].size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "stream " << s << " update " << k);
      ExpectUpdateEq(expected[s][k], actual[s][k]);
      EXPECT_EQ(expected[s][k].approximation_epsilon,
                actual[s][k].approximation_epsilon);
    }
  }
  // Side-aware window accessors expose both cross windows.
  EXPECT_EQ(cross_monitor.value().WindowTrajectory(0).points(),
            fleet.value().WindowTrajectory(2).points());
  EXPECT_EQ(cross_monitor.value().WindowTrajectory(1).points(),
            fleet.value().WindowTrajectory(3).points());
}

TEST(FleetEngine, HeterogeneousSnapshotRestoreContinuesBitIdentically) {
  const HaversineMetric metric;
  const StreamOptions base = SmallStreamOptions();
  StreamOptions relaxed = base;
  relaxed.approximation_epsilon = 0.05;

  const Trajectory t0 = GeoWalk(220, 51);
  const Trajectory ta = GeoWalk(220, 52);
  const Trajectory tb = GeoWalk(220, 53);

  FleetOptions options;
  options.stream = base;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_EQ(0u, fleet.value().AddStream(relaxed).value());
  ASSERT_TRUE(fleet.value().AddCrossPair().ok());

  const auto push_round = [&](MotifFleetEngine* engine, Index k,
                              std::vector<FleetStreamUpdate>* into) {
    std::vector<FleetArrival> batch;
    batch.push_back(FleetArrival{0, t0[k], false, 0.0});
    batch.push_back(FleetArrival{1, ta[k], false, 0.0});
    batch.push_back(FleetArrival{2, tb[k], false, 0.0});
    auto report = engine->Ingest(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    for (const FleetStreamUpdate& fu : report.value().updates) {
      into->push_back(fu);
    }
  };

  std::vector<FleetStreamUpdate> reference;
  for (Index k = 0; k < 120; ++k) {
    push_round(&fleet.value(), k, &reference);
  }

  std::string snapshot;
  ASSERT_TRUE(fleet.value().Snapshot(&snapshot).ok());
  auto restored = MotifFleetEngine::Restore(options, metric, snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(3u, restored.value().stream_count());
  EXPECT_EQ(2u, restored.value().member_count());
  EXPECT_EQ(0.05,
            restored.value().stream_options(0).approximation_epsilon);

  // Both engines continue in lockstep; every future report must agree
  // bit for bit.
  std::vector<FleetStreamUpdate> original_tail;
  std::vector<FleetStreamUpdate> restored_tail;
  for (Index k = 120; k < 220; ++k) {
    push_round(&fleet.value(), k, &original_tail);
    push_round(&restored.value(), k, &restored_tail);
  }
  ASSERT_EQ(original_tail.size(), restored_tail.size());
  ASSERT_FALSE(original_tail.empty());
  for (std::size_t k = 0; k < original_tail.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "tail update " << k);
    EXPECT_EQ(original_tail[k].stream, restored_tail[k].stream);
    ExpectUpdateEq(original_tail[k].update, restored_tail[k].update);
  }
}

}  // namespace
}  // namespace frechet_motif
