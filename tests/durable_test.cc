// Unit tests for the durability subsystem: the binary codec, the
// generation-based StateStore (rotation, recovery, corruption
// fallback), PosixFs, and bit-exact snapshot/restore round-trips of
// the fleet engine and DurableFleet. The randomized crash schedules
// live in durable_recovery_fuzz_test.cc.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "durable/durable_fleet.h"
#include "durable/durable_fs.h"
#include "durable/state_store.h"
#include "fault_fs.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "stream/motif_fleet_engine.h"
#include "test_util.h"
#include "util/binary_codec.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

using testing_util::FaultFs;

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(BinaryCodec, RoundTripsEveryType) {
  BinaryWriter writer;
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI32(-7);
  writer.PutI64(-1234567890123LL);
  writer.PutBool(true);
  writer.PutDouble(-0.0);
  writer.PutDouble(3.141592653589793);
  writer.PutString("journal");
  writer.PutDoubleVector({1.5, -2.5, 1e-300});
  writer.PutI32Vector({-1, 0, 7});

  BinaryReader reader(writer.bytes());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  bool b = false;
  double d = 0.0;
  std::string s;
  std::vector<double> dv;
  std::vector<std::int32_t> iv;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  EXPECT_EQ(0xAB, u8);
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  EXPECT_EQ(0xDEADBEEFu, u32);
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  EXPECT_EQ(0x0123456789ABCDEFull, u64);
  ASSERT_TRUE(reader.GetI32(&i32).ok());
  EXPECT_EQ(-7, i32);
  ASSERT_TRUE(reader.GetI64(&i64).ok());
  EXPECT_EQ(-1234567890123LL, i64);
  ASSERT_TRUE(reader.GetBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(reader.GetDouble(&d).ok());
  EXPECT_EQ(0.0, d);
  EXPECT_TRUE(std::signbit(d)) << "-0.0 must survive bit-exactly";
  ASSERT_TRUE(reader.GetDouble(&d).ok());
  EXPECT_EQ(3.141592653589793, d);
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ("journal", s);
  ASSERT_TRUE(reader.GetDoubleVector(&dv).ok());
  EXPECT_EQ((std::vector<double>{1.5, -2.5, 1e-300}), dv);
  ASSERT_TRUE(reader.GetI32Vector(&iv).ok());
  EXPECT_EQ((std::vector<std::int32_t>{-1, 0, 7}), iv);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryCodec, TruncationReportsDataLoss) {
  BinaryWriter writer;
  writer.PutU64(42);
  const std::string bytes = writer.bytes().substr(0, 5);
  BinaryReader reader(bytes);
  std::uint64_t v = 0;
  EXPECT_EQ(StatusCode::kDataLoss, reader.GetU64(&v).code());
}

TEST(BinaryCodec, CorruptVectorLengthDoesNotAllocate) {
  BinaryWriter writer;
  writer.PutU64(std::uint64_t{1} << 60);  // absurd element count
  BinaryReader reader(writer.bytes());
  std::vector<double> v;
  EXPECT_EQ(StatusCode::kDataLoss, reader.GetDoubleVector(&v).code());
}

TEST(BinaryCodec, VectorLengthOverflowIsDataLoss) {
  // Regression pinned from fuzz_snapshot (the committed input is
  // tests/fuzz/corpus/fuzz_snapshot/overflow-u64-len): a length of
  // 2^61 made the old `Need(size * 8)` byte-count wrap to zero, so the
  // truncation check passed and resize(2^61) threw — violating the
  // library's no-throw contract on corrupt input.
  for (const std::uint64_t size :
       {std::uint64_t{1} << 61, ~std::uint64_t{0},
        (~std::uint64_t{0} >> 3) + 1}) {
    BinaryWriter writer;
    writer.PutU64(size);
    BinaryReader dreader(writer.bytes());
    std::vector<double> dv;
    EXPECT_EQ(StatusCode::kDataLoss, dreader.GetDoubleVector(&dv).code());
    BinaryReader ireader(writer.bytes());
    std::vector<std::int32_t> iv;
    EXPECT_EQ(StatusCode::kDataLoss, ireader.GetI32Vector(&iv).code());
  }
}

TEST(BinaryCodec, Crc32MatchesKnownVector) {
  // The CRC-32/ISO-HDLC check value (zlib/PNG convention).
  EXPECT_EQ(0xCBF43926u, Crc32("123456789"));
  // Chunked == one-shot.
  EXPECT_EQ(Crc32("123456789"), Crc32("456789", Crc32("123")));
}

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

TEST(StateStore, FreshDirectoryThenCheckpointAppendRecover) {
  FaultFs fs(1);
  auto store = StateStore::Open(&fs, "state");
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_FALSE(store.value().recovered().has_snapshot);
  EXPECT_TRUE(store.value().recovered().records.empty());

  // Appending before the first rotation is a protocol violation.
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            store.value().AppendRecord("r").code());

  ASSERT_TRUE(store.value().Checkpoint("snap-one").ok());
  ASSERT_TRUE(store.value().AppendRecord("alpha").ok());
  ASSERT_TRUE(store.value().AppendRecord("beta").ok());
  ASSERT_TRUE(store.value().SyncJournal().ok());

  auto reopened = StateStore::Open(&fs, "state");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value().recovered().has_snapshot);
  EXPECT_EQ("snap-one", reopened.value().recovered().snapshot);
  EXPECT_EQ((std::vector<std::string>{"alpha", "beta"}),
            reopened.value().recovered().records);
}

TEST(StateStore, RotationKeepsOneFallbackGeneration) {
  FaultFs fs(2);
  auto store = StateStore::Open(&fs, "state");
  ASSERT_TRUE(store.ok());
  for (int g = 1; g <= 4; ++g) {
    ASSERT_TRUE(store.value().Checkpoint("snapshot " + std::to_string(g)).ok());
    ASSERT_TRUE(store.value().AppendRecord("g" + std::to_string(g)).ok());
    ASSERT_TRUE(store.value().SyncJournal().ok());
  }
  EXPECT_EQ(4u, store.value().generation());
  // Generations <= 2 are gone; 3 (fallback) and 4 (current) remain.
  EXPECT_FALSE(fs.Exists(store.value().SnapshotPath(2)).value());
  EXPECT_FALSE(fs.Exists(store.value().JournalPath(2)).value());
  EXPECT_TRUE(fs.Exists(store.value().SnapshotPath(3)).value());
  EXPECT_TRUE(fs.Exists(store.value().JournalPath(3)).value());
  EXPECT_TRUE(fs.Exists(store.value().SnapshotPath(4)).value());

  auto reopened = StateStore::Open(&fs, "state");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ("snapshot 4", reopened.value().recovered().snapshot);
  EXPECT_EQ((std::vector<std::string>{"g4"}),
            reopened.value().recovered().records);
}

TEST(StateStore, CorruptNewestSnapshotFallsBackOneGeneration) {
  FaultFs fs(3);
  std::string snap2_path;
  {
    auto store = StateStore::Open(&fs, "state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Checkpoint("snapshot 1").ok());
    ASSERT_TRUE(store.value().AppendRecord("wal1-a").ok());
    ASSERT_TRUE(store.value().SyncJournal().ok());
    ASSERT_TRUE(store.value().Checkpoint("snapshot 2").ok());
    ASSERT_TRUE(store.value().AppendRecord("wal2-a").ok());
    ASSERT_TRUE(store.value().SyncJournal().ok());
    snap2_path = store.value().SnapshotPath(2);
  }
  // Stable-storage corruption in the newest snapshot: recovery must
  // fall back to generation 1 and rebuild the SAME history from its
  // snapshot plus the full generation-1 journal and the gen-2 tail.
  ASSERT_TRUE(fs.FlipBit(snap2_path, 12345));
  auto reopened = StateStore::Open(&fs, "state");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ("snapshot 1", reopened.value().recovered().snapshot);
  EXPECT_EQ((std::vector<std::string>{"wal1-a", "wal2-a"}),
            reopened.value().recovered().records);
}

TEST(StateStore, TornJournalTailIsDroppedCleanly) {
  FaultFs fs(4);
  {
    auto store = StateStore::Open(&fs, "state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Checkpoint("base").ok());
    ASSERT_TRUE(store.value().AppendRecord("durable-record").ok());
    ASSERT_TRUE(store.value().SyncJournal().ok());
    // Appended but never synced: a crash may tear it.
    ASSERT_TRUE(store.value().AppendRecord("volatile-record").ok());
  }
  fs.Restart();  // keeps the synced prefix + a random cut of the rest
  auto reopened = StateStore::Open(&fs, "state");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ("base", reopened.value().recovered().snapshot);
  const auto& records = reopened.value().recovered().records;
  ASSERT_GE(records.size(), 1u);
  ASSERT_LE(records.size(), 2u);
  EXPECT_EQ("durable-record", records[0]);
  if (records.size() == 2) {
    EXPECT_EQ("volatile-record", records[1]);
  }
}

TEST(StateStore, AllSnapshotsCorruptIsDataLossNotSilentRestart) {
  FaultFs fs(5);
  std::string snap_path;
  {
    auto store = StateStore::Open(&fs, "state");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Checkpoint("only").ok());
    snap_path = store.value().SnapshotPath(1);
  }
  ASSERT_TRUE(fs.FlipBit(snap_path, 99));
  auto reopened = StateStore::Open(&fs, "state");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(StatusCode::kDataLoss, reopened.status().code());
}

TEST(PosixFs, SmokeAgainstRealFilesystem) {
  PosixFs fs;
  const std::string dir = ::testing::TempDir() + "fmotif_posixfs_smoke";
  ASSERT_TRUE(fs.CreateDir(dir).ok());
  ASSERT_TRUE(fs.CreateDir(dir).ok()) << "CreateDir must tolerate existing";

  const std::string file = dir + "/a";
  ASSERT_TRUE(fs.WriteFile(file, "hello").ok());
  ASSERT_TRUE(fs.Append(file, " world").ok());
  ASSERT_TRUE(fs.Sync(file).ok());
  EXPECT_EQ("hello world", fs.ReadFile(file).value());

  ASSERT_TRUE(fs.Rename(file, dir + "/b").ok());
  EXPECT_FALSE(fs.Exists(file).value());
  EXPECT_EQ("hello world", fs.ReadFile(dir + "/b").value());
  EXPECT_EQ(StatusCode::kNotFound, fs.ReadFile(file).status().code());

  const auto names = fs.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ((std::vector<std::string>{"b"}), names.value());

  ASSERT_TRUE(fs.Remove(dir + "/b").ok());
  EXPECT_EQ(StatusCode::kNotFound, fs.Remove(dir + "/b").code());
}

// ---------------------------------------------------------------------------
// Snapshot/restore round-trips
// ---------------------------------------------------------------------------

StreamOptions SmallStreamOptions() {
  StreamOptions options;
  options.min_length_xi = 6;
  options.window_length = 20;  // >= 2*6 + 4
  options.slide_step = 3;
  return options;
}

TEST(MonitorSnapshot, RestoredMonitorContinuesBitIdentically) {
  // A one-stream fleet is the single-trajectory streaming monitor.
  FleetOptions options;
  options.stream = SmallStreamOptions();
  const EuclideanMetric metric;
  const Trajectory t = testing_util::MakePlanarWalk(90, 7001);

  auto original = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(original.ok());
  ASSERT_EQ(0u, original.value().AddStream().value());
  std::string snapshot;
  // Mid-stream split point chosen after several searches so the carried
  // threshold, tie-break state, and achiever arrays are all non-trivial.
  for (Index k = 0; k < 55; ++k) {
    ASSERT_TRUE(original.value().Push(0, t[k]).ok());
  }
  ASSERT_TRUE(original.value().Snapshot(&snapshot).ok());

  auto restored = MotifFleetEngine::Restore(options, metric, snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(original.value().stats().points_ingested,
            restored.value().stats().points_ingested);

  std::size_t compared = 0;
  for (Index k = 55; k < t.size(); ++k) {
    auto a = original.value().Push(0, t[k]);
    auto b = restored.value().Push(0, t[k]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().updates.size(), b.value().updates.size());
    for (std::size_t u = 0; u < a.value().updates.size(); ++u) {
      const StreamUpdate& ua = a.value().updates[u].update;
      const StreamUpdate& ub = b.value().updates[u].update;
      EXPECT_EQ(ua.motif.best, ub.motif.best);
      EXPECT_EQ(ua.motif.distance, ub.motif.distance);
      EXPECT_EQ(ua.seeded, ub.seeded);
      EXPECT_EQ(ua.carried, ub.carried);
      EXPECT_EQ(ua.stats.dfd_cells_computed, ub.stats.dfd_cells_computed);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
  // Full-state equality, counters and bound achievers included.
  std::string sa;
  std::string sb;
  ASSERT_TRUE(original.value().Snapshot(&sa).ok());
  ASSERT_TRUE(restored.value().Snapshot(&sb).ok());
  EXPECT_EQ(sa, sb);
}

TEST(FleetSnapshot, RestoredFleetContinuesBitIdenticallyWithJoin) {
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.join_epsilon = 250.0;
  options.reorder_capacity = 0;
  const EuclideanMetric metric;

  auto original = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(original.ok());
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(original.value().AddStream().ok());
    data.push_back(testing_util::MakePlanarWalk(80, 8100 + s));
  }
  Rng rng(9001);
  std::vector<Index> cursor(3, 0);
  // Interleave 150 arrivals, then snapshot mid-flight.
  std::vector<std::size_t> schedule;
  for (int k = 0; k < 240; ++k) {
    schedule.push_back(static_cast<std::size_t>(rng.NextInt(0, 2)));
  }
  std::size_t resume_at = 0;
  int fed = 0;
  while (resume_at < schedule.size() && fed < 150) {
    const std::size_t s = schedule[resume_at++];
    if (cursor[s] >= 80) continue;
    ASSERT_TRUE(original.value()
                    .Push(s, data[s][cursor[s]],
                          1000.0 + static_cast<double>(cursor[s]))
                    .ok());
    ++cursor[s];
    ++fed;
  }

  std::string snapshot;
  ASSERT_TRUE(original.value().Snapshot(&snapshot).ok());
  auto restored = MotifFleetEngine::Restore(options, metric, snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // Same continuation through both engines: reports (flags and DP-cell
  // counters included), join deltas, and the final manifests must be
  // bit-identical.
  for (std::size_t i = resume_at; i < schedule.size(); ++i) {
    const std::size_t s = schedule[i];
    if (cursor[s] >= 80) continue;
    auto a = original.value().Push(s, data[s][cursor[s]],
                                   1000.0 + static_cast<double>(cursor[s]));
    auto b = restored.value().Push(s, data[s][cursor[s]],
                                   1000.0 + static_cast<double>(cursor[s]));
    ++cursor[s];
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().updates.size(), b.value().updates.size());
    for (std::size_t u = 0; u < a.value().updates.size(); ++u) {
      const StreamUpdate& ua = a.value().updates[u].update;
      const StreamUpdate& ub = b.value().updates[u].update;
      EXPECT_EQ(a.value().updates[u].stream, b.value().updates[u].stream);
      EXPECT_EQ(ua.window_start, ub.window_start);
      EXPECT_EQ(ua.motif.best, ub.motif.best);
      EXPECT_EQ(ua.motif.distance, ub.motif.distance);
      EXPECT_EQ(ua.seeded, ub.seeded);
      EXPECT_EQ(ua.carried, ub.carried);
      EXPECT_EQ(ua.stats.dfd_cells_computed, ub.stats.dfd_cells_computed);
    }
    EXPECT_EQ(a.value().join_delta.entered, b.value().join_delta.entered);
    EXPECT_EQ(a.value().join_delta.left, b.value().join_delta.left);
  }
  EXPECT_EQ(original.value().CurrentJoinMatches(),
            restored.value().CurrentJoinMatches());
  std::string sa;
  std::string sb;
  ASSERT_TRUE(original.value().Snapshot(&sa).ok());
  ASSERT_TRUE(restored.value().Snapshot(&sb).ok());
  EXPECT_EQ(sa, sb);
}

TEST(FleetSnapshot, OptionMismatchAndTrailingBytesAreRejected) {
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.join_epsilon = 250.0;
  const EuclideanMetric metric;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet.value().AddStream().ok());
  const Trajectory t = testing_util::MakePlanarWalk(40, 7002);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k]).ok());
  }
  std::string snapshot;
  ASSERT_TRUE(fleet.value().Snapshot(&snapshot).ok());

  // The thread count is a runtime choice; everything else must match.
  FleetOptions threaded = options;
  threaded.stream.threads = 4;
  EXPECT_TRUE(MotifFleetEngine::Restore(threaded, metric, snapshot).ok());
  FleetOptions longer = options;
  longer.stream.window_length += 1;
  FleetOptions relaxed = options;
  relaxed.stream.approximation_epsilon = 0.1;
  FleetOptions no_join = options;
  no_join.join_epsilon = -1.0;
  FleetOptions budgeted = options;
  budgeted.max_searches_per_drain = 1;
  for (const FleetOptions& other : {longer, relaxed, no_join, budgeted}) {
    auto restored = MotifFleetEngine::Restore(other, metric, snapshot);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(StatusCode::kFailedPrecondition, restored.status().code());
  }

  // Trailing garbage is DataLoss, not silent acceptance.
  auto trailing = MotifFleetEngine::Restore(options, metric, snapshot + "x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(StatusCode::kDataLoss, trailing.status().code());

  // A manifest from before the points-only window layout (v2 stored
  // ring cells) is rejected by version, not misread.
  std::string v2 = snapshot;
  v2.replace(0, 4, std::string("\x02\x00\x00\x00", 4));
  auto old_layout = MotifFleetEngine::Restore(options, metric, v2);
  ASSERT_FALSE(old_layout.ok());
  EXPECT_EQ(StatusCode::kDataLoss, old_layout.status().code());
  EXPECT_EQ("unsupported fleet manifest version 2",
            old_layout.status().message());
}

TEST(FleetSnapshot, InvalidRestoredPointIsDataLoss) {
  // Ring cells are re-derived from the saved points, so a corrupt point
  // must be caught where it re-enters the engine, not turned into NaN
  // cells.
  FleetOptions options;
  options.stream = SmallStreamOptions();
  const EuclideanMetric metric;
  auto fleet = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(fleet.ok());
  ASSERT_TRUE(fleet.value().AddStream().ok());
  const Trajectory t = testing_util::MakePlanarWalk(40, 7003);
  for (Index k = 0; k < t.size(); ++k) {
    ASSERT_TRUE(fleet.value().Push(0, t[k]).ok());
  }
  std::string snapshot;
  ASSERT_TRUE(fleet.value().Snapshot(&snapshot).ok());
  ASSERT_TRUE(MotifFleetEngine::Restore(options, metric, snapshot).ok());

  // Overwrite the newest point's x with a NaN bit pattern.
  const double x = t[t.size() - 1].x;
  const std::string x_bytes(reinterpret_cast<const char*>(&x), sizeof(x));
  const std::size_t at = snapshot.find(x_bytes);
  ASSERT_NE(std::string::npos, at);
  ASSERT_EQ(at, snapshot.rfind(x_bytes)) << "x must be stored once";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  snapshot.replace(at, sizeof(nan),
                   std::string(reinterpret_cast<const char*>(&nan),
                               sizeof(nan)));
  auto restored = MotifFleetEngine::Restore(options, metric, snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(StatusCode::kDataLoss, restored.status().code());
}

TEST(FleetSnapshot, SizeGrowsLinearlyWithWindow) {
  // A window record holds its points and O(W) bound arrays, not the W²
  // ring: quadrupling W must grow the snapshot about 4x, far below the
  // 16x a cell dump costs.
  const auto snapshot_bytes = [](Index window) -> std::size_t {
    FleetOptions options;
    options.stream.window_length = window;
    options.stream.slide_step = window / 4;
    options.stream.min_length_xi = 6;
    const EuclideanMetric metric;
    auto fleet = MotifFleetEngine::Create(options, metric);
    EXPECT_TRUE(fleet.ok());
    if (!fleet.ok()) return 0;
    EXPECT_TRUE(fleet.value().AddStream().ok());
    const Trajectory t = testing_util::MakePlanarWalk(2 * window, 7004);
    for (Index k = 0; k < t.size(); ++k) {
      EXPECT_TRUE(fleet.value().Push(0, t[k]).ok());
    }
    std::string snapshot;
    EXPECT_TRUE(fleet.value().Snapshot(&snapshot).ok());
    return snapshot.size();
  };
  const std::size_t small = snapshot_bytes(64);
  const std::size_t large = snapshot_bytes(256);
  ASSERT_GT(small, 0u);
  EXPECT_LT(static_cast<double>(large) / static_cast<double>(small), 6.0)
      << small << " bytes at W=64, " << large << " bytes at W=256";
}

// The engine shape of the fuzz_snapshot harness (SeedOptions in
// tests/fuzz/fuzz_snapshot.cc): its engine-restore stage only gets past
// the options echo for blobs made under these options.
FleetOptions FuzzSeedOptions() {
  FleetOptions options;
  options.stream.window_length = 8;
  options.stream.slide_step = 2;
  options.stream.min_length_xi = 2;
  return options;
}

// One single and one cross member, timestamped, each past a search.
void BuildFuzzSeedSnapshot(std::string* out) {
  auto fleet = MotifFleetEngine::Create(FuzzSeedOptions(), Euclidean());
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ASSERT_TRUE(fleet.value().AddStream().ok());
  ASSERT_TRUE(fleet.value().AddCrossPair().ok());
  std::vector<Trajectory> data;
  for (std::size_t s = 0; s < 3; ++s) {
    data.push_back(testing_util::MakePlanarWalk(13, 7100 + s));
  }
  for (Index k = 0; k < 13; ++k) {
    for (std::size_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(fleet.value()
                      .Push(s, data[s][k], 100.0 + static_cast<double>(k))
                      .ok());
    }
  }
  ASSERT_TRUE(fleet.value().Snapshot(out).ok());
}

TEST(FleetSnapshot, CommittedFuzzSeedRestores) {
  // The committed seed must be a current-layout blob, or the harness's
  // engine-restore stage never gets past the version field. To refresh
  // it after a layout change:
  //
  //   FMOTIF_UPDATE_GOLDEN=1 ./build/tests/durable_test
  const std::string path =
      std::string(FMOTIF_SNAPSHOT_CORPUS_DIR) + "/engine-snapshot";
  if (std::getenv("FMOTIF_UPDATE_GOLDEN") != nullptr) {
    std::string fresh;
    ASSERT_NO_FATAL_FAILURE(BuildFuzzSeedSnapshot(&fresh));
    std::ofstream out(path, std::ios::binary);
    out << fresh;
    ASSERT_TRUE(out.good()) << "failed to update " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fuzz seed " << path;
  std::stringstream seed;
  seed << in.rdbuf();

  auto restored =
      MotifFleetEngine::Restore(FuzzSeedOptions(), Euclidean(), seed.str());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(3, restored.value().stats().streams);
  EXPECT_GE(restored.value().stats().searches, 2);
  std::string again;
  ASSERT_TRUE(restored.value().Snapshot(&again).ok());
  EXPECT_EQ(seed.str(), again);
}

// ---------------------------------------------------------------------------
// DurableFleet
// ---------------------------------------------------------------------------

TEST(DurableFleet, MirrorsThePlainEngineAndSurvivesReopen) {
  // Recovery beats a full replay: with a checkpoint every C records and
  // R > 2C records journaled, reopening restores the newest snapshot and
  // replays at most C records, landing on the never-crashed engine's
  // state. Each mutating call journals exactly one record, so the
  // generation count and the replayed tail are exact.
  constexpr std::uint64_t kInterval = 8;
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.join_epsilon = 250.0;
  const EuclideanMetric metric;

  FaultFs fs(11);
  DurableOptions durable;
  durable.state_dir = "state";
  durable.fs = &fs;
  durable.checkpoint_interval_records = kInterval;

  auto plain = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(plain.ok());
  const Trajectory t0 = testing_util::MakePlanarWalk(70, 8801);
  const Trajectory t1 = testing_util::MakePlanarWalk(70, 8802);

  std::uint64_t calls = 0;
  {
    auto fleet = DurableFleet::Open(options, metric, durable);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    EXPECT_FALSE(fleet.value().recovery().restored_snapshot);
    // Open checkpoints the empty engine: generation 1, empty journal.
    EXPECT_EQ(1u, fleet.value().generation());
    for (std::size_t s = 0; s < 2; ++s) {
      ASSERT_TRUE(fleet.value().AddStream().ok());
      ASSERT_TRUE(plain.value().AddStream().ok());
      ++calls;
    }
    for (Index k = 0; k < 40; ++k) {
      for (std::size_t s = 0; s < 2; ++s) {
        const Point& p = (s == 0 ? t0 : t1)[k];
        auto durable_report = fleet.value().Push(s, p);
        auto plain_report = plain.value().Push(s, p);
        ++calls;
        ASSERT_TRUE(durable_report.ok()) << durable_report.status();
        ASSERT_TRUE(plain_report.ok());
        // Live reports are the plain engine's, bit for bit.
        ASSERT_EQ(plain_report.value().updates.size(),
                  durable_report.value().updates.size());
        for (std::size_t u = 0; u < plain_report.value().updates.size();
             ++u) {
          EXPECT_EQ(plain_report.value().updates[u].update.motif.best,
                    durable_report.value().updates[u].update.motif.best);
          EXPECT_EQ(plain_report.value().updates[u].update.motif.distance,
                    durable_report.value().updates[u].update.motif.distance);
        }
      }
    }
    ASSERT_GT(calls, 2 * kInterval);
    ASSERT_NE(0u, calls % kInterval);  // a tail is left to replay
    EXPECT_EQ(1 + calls / kInterval, fleet.value().generation());
    // The fleet dies here without any explicit shutdown: everything
    // journaled was synced record-by-record.
  }
  fs.Restart();

  auto reopened = DurableFleet::Open(options, metric, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value().recovery().restored_snapshot);
  EXPECT_LE(reopened.value().recovery().replayed_records, kInterval);
  EXPECT_EQ(calls % kInterval, reopened.value().recovery().replayed_records);
  std::string recovered;
  std::string never_crashed;
  ASSERT_TRUE(reopened.value().Snapshot(&recovered).ok());
  ASSERT_TRUE(plain.value().Snapshot(&never_crashed).ok());
  EXPECT_TRUE(recovered == never_crashed)
      << "recovered state differs from the never-crashed engine";

  // Continue both; state stays in lockstep with the never-persisted
  // engine through to the end.
  for (Index k = 40; k < 70; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      const Point& p = (s == 0 ? t0 : t1)[k];
      ASSERT_TRUE(reopened.value().Push(s, p).ok());
      ASSERT_TRUE(plain.value().Push(s, p).ok());
    }
  }
  std::string durable_manifest;
  std::string plain_manifest;
  ASSERT_TRUE(reopened.value().engine().Snapshot(&durable_manifest).ok());
  ASSERT_TRUE(plain.value().Snapshot(&plain_manifest).ok());
  EXPECT_EQ(plain_manifest, durable_manifest);
  EXPECT_EQ(plain.value().CurrentJoinMatches(),
            reopened.value().engine().CurrentJoinMatches());
}

TEST(DurableFleet, ReorderedFeedRecoversWatermarkAndLateDrops) {
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.reorder_capacity = 4;
  const EuclideanMetric metric;

  FaultFs fs(12);
  DurableOptions durable;
  durable.state_dir = "state";
  durable.fs = &fs;

  const Trajectory t = testing_util::MakePlanarWalk(46, 8803);
  {
    auto fleet = DurableFleet::Open(options, metric, durable);
    ASSERT_TRUE(fleet.ok());
    ASSERT_TRUE(fleet.value().AddStream().ok());
    // Out-of-order feed: swap every adjacent pair of timestamps.
    for (Index k = 0; k + 1 < 44; k += 2) {
      ASSERT_TRUE(
          fleet.value().Push(0, t[k + 1], static_cast<double>(k + 1)).ok());
      ASSERT_TRUE(fleet.value().Push(0, t[k], static_cast<double>(k)).ok());
    }
    ASSERT_TRUE(fleet.value().Flush().ok());
    EXPECT_GT(fleet.value().stats().reordered, 0);
  }
  fs.Restart();
  auto reopened = DurableFleet::Open(options, metric, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Watermark recovered: a pre-watermark arrival is late-dropped, not
  // applied out of order.
  const auto before = reopened.value().engine().ingest_stats(0).released;
  ASSERT_TRUE(reopened.value().Push(0, t[0], 1.0).ok());
  ASSERT_TRUE(reopened.value().Flush().ok());
  EXPECT_EQ(before, reopened.value().engine().ingest_stats(0).released);
  EXPECT_EQ(1, reopened.value().stats().late_dropped);
}

TEST(DurableFleet, RejectedBatchWritesNoJournalRecord) {
  FleetOptions options;
  options.stream = SmallStreamOptions();
  const EuclideanMetric metric;
  FaultFs fs(13);
  DurableOptions durable;
  durable.state_dir = "state";
  durable.fs = &fs;
  durable.checkpoint_interval_records = 0;
  {
    auto fleet = DurableFleet::Open(options, metric, durable);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    ASSERT_TRUE(fleet.value().AddStream().ok());
    ASSERT_TRUE(fleet.value().Push(0, Point(1.0, 2.0)).ok());
    const FleetArrival good{0, Point(3.0, 4.0), false, 0.0};
    const FleetArrival nan_point{0, Point(std::nan(""), 4.0), false, 0.0};
    const FleetArrival unknown{5, Point(3.0, 4.0), false, 0.0};
    EXPECT_FALSE(fleet.value().Ingest({good, nan_point}).ok());
    EXPECT_FALSE(fleet.value().Ingest({good, unknown}).ok());
    EXPECT_EQ(1, fleet.value().stats().points_ingested);
  }
  fs.Restart();
  auto store = StateStore::Open(&fs, "state");
  ASSERT_TRUE(store.ok()) << store.status();
  // The add-stream call and the one accepted push; nothing else.
  EXPECT_EQ(2u, store.value().recovered().records.size());
}

// ---------------------------------------------------------------------------
// State dirs written before the journal logged engine calls
// ---------------------------------------------------------------------------

// The legacy records, byte for byte: kind 2 added a default stream; kind
// 1 held one call's *released* (post-reorder) batch.
std::string LegacyAddStreamRecord() {
  BinaryWriter writer;
  writer.PutU8(2);
  return writer.Take();
}

std::string LegacyReleasedBatchRecord(const std::vector<FleetArrival>& batch) {
  BinaryWriter writer;
  writer.PutU8(1);
  writer.PutU64(batch.size());
  for (const FleetArrival& a : batch) {
    writer.PutU32(static_cast<std::uint32_t>(a.stream));
    writer.PutBool(a.has_timestamp);
    writer.PutDouble(a.point.x);
    writer.PutDouble(a.point.y);
    if (a.has_timestamp) writer.PutDouble(a.timestamp);
  }
  return writer.Take();
}

// Writes what a legacy DurableFleet left behind: the empty engine's
// snapshot, `streams` add-stream records, then one released-batch record
// per batch.
void WriteLegacyStateDir(FaultFs* fs, const std::string& dir,
                         const FleetOptions& options,
                         const GroundMetric& metric, std::size_t streams,
                         const std::vector<std::vector<FleetArrival>>& batches) {
  auto empty = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(empty.ok());
  std::string snapshot;
  ASSERT_TRUE(empty.value().Snapshot(&snapshot).ok());
  auto store = StateStore::Open(fs, dir);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store.value().Checkpoint(snapshot).ok());
  for (std::size_t s = 0; s < streams; ++s) {
    ASSERT_TRUE(store.value().AppendRecord(LegacyAddStreamRecord()).ok());
  }
  for (const std::vector<FleetArrival>& batch : batches) {
    ASSERT_TRUE(
        store.value().AppendRecord(LegacyReleasedBatchRecord(batch)).ok());
  }
  ASSERT_TRUE(store.value().SyncJournal().ok());
}

TEST(DurableFleet, LegacyJournalReplaysWhenNothingReorders) {
  // With reorder_capacity 0 a released batch is the raw batch, so legacy
  // records replay through Ingest and land on the plain engine's state.
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.join_epsilon = 250.0;
  const EuclideanMetric metric;
  const Trajectory t0 = testing_util::MakePlanarWalk(60, 8811);
  const Trajectory t1 = testing_util::MakePlanarWalk(60, 8812);

  auto plain = MotifFleetEngine::Create(options, metric);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain.value().AddStream().ok());
  ASSERT_TRUE(plain.value().AddStream().ok());
  std::vector<std::vector<FleetArrival>> batches;
  for (Index k = 0; k < 60; k += 2) {
    std::vector<FleetArrival> batch;
    for (Index j = k; j < k + 2; ++j) {
      batch.push_back(FleetArrival{0, t0[j], true, static_cast<double>(j)});
      batch.push_back(FleetArrival{1, t1[j], true, static_cast<double>(j)});
    }
    ASSERT_TRUE(plain.value().Ingest(batch).ok());
    batches.push_back(batch);
  }

  FaultFs fs(14);
  WriteLegacyStateDir(&fs, "legacy", options, metric, 2, batches);
  DurableOptions durable;
  durable.state_dir = "legacy";
  durable.fs = &fs;
  auto fleet = DurableFleet::Open(options, metric, durable);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  EXPECT_EQ(2 + batches.size(), fleet.value().recovery().replayed_records);
  ASSERT_EQ(2u, fleet.value().stream_count());
  std::string want;
  std::string got;
  ASSERT_TRUE(plain.value().Snapshot(&want).ok());
  ASSERT_TRUE(fleet.value().Snapshot(&got).ok());
  EXPECT_TRUE(want == got) << "legacy replay diverged from the plain engine";
}

TEST(DurableFleet, LegacyReleasedBatchUnderReorderingIsDataLoss) {
  FleetOptions options;
  options.stream = SmallStreamOptions();
  options.reorder_capacity = 3;
  const EuclideanMetric metric;
  FaultFs fs(15);
  DurableOptions durable;
  durable.fs = &fs;

  // Add-stream records alone carry no reordering, so they still replay.
  WriteLegacyStateDir(&fs, "streams_only", options, metric, 2, {});
  durable.state_dir = "streams_only";
  auto fleet = DurableFleet::Open(options, metric, durable);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  EXPECT_EQ(2u, fleet.value().stream_count());

  // A released batch is not the raw one once points reorder: refuse it
  // rather than replay something the original run never saw.
  WriteLegacyStateDir(&fs, "with_batch", options, metric, 1,
                      {{FleetArrival{0, Point(1.0, 2.0), true, 5.0}}});
  durable.state_dir = "with_batch";
  auto refused = DurableFleet::Open(options, metric, durable);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(StatusCode::kDataLoss, refused.status().code());
  EXPECT_NE(std::string::npos, refused.status().message().find("legacy"))
      << refused.status();
}

}  // namespace
}  // namespace frechet_motif
