// serve_durable: an open loop at a fixed rate through the serve tier.
// RunServeLoop runs on its own thread over loopback TCP; the main
// thread is the client, with three connections: a feeder sending one
// tick (one row per stream) every 5 ms, a `SUB all` subscriber, and a
// prober sending PING every 10 ms. The server journals every ingest
// (a sync per record) through PosixFs, less its flush (NoFlushFs), into
// a state dir under the work dir, and its set-up is the recovery of a
// crashed state dir: a snapshot plus a journal tail.

#include <arpa/inet.h>
#include <linux/magic.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "data/io.h"
#include "durable/durable_fleet.h"
#include "durable/durable_fs.h"
#include "geo/metric.h"
#include "serve/motif_server.h"
#include "serve/serve_loop.h"
#include "serve/serve_socket.h"
#include "stream/motif_fleet_engine.h"
#include "timed_seams.h"
#include "trace.h"
#include "workloads.h"

namespace pipebench {
namespace {

using frechet_motif::DurableFleet;
using frechet_motif::DurableOptions;
using frechet_motif::FleetArrival;
using frechet_motif::FleetOptions;
using frechet_motif::HaversineMetric;
using frechet_motif::Index;
using frechet_motif::MotifFleetEngine;
using frechet_motif::MotifServer;
using frechet_motif::PosixFs;
using frechet_motif::ServeOptions;

constexpr int kStreams = 16;
constexpr Index kWindow = 128;
constexpr Index kSlide = 8;
constexpr Index kXi = 16;
constexpr double kTicksPerSecond = 200.0;
constexpr double kPingPeriodS = 0.010;
/// Ticks the crashed process journaled before the measured server
/// recovers its state dir. With a checkpoint every 256 records this
/// leaves a snapshot plus a tail of 160 records to replay.
constexpr Index kFillTicks = 400;
constexpr std::uint64_t kFillCheckpointRecords = 256;
/// The measured server checkpoints every 64 records (about 3 per
/// second): enough stalls that the p99 report latency is set by them,
/// rather than by whether a run happened to hold one more or one fewer.
constexpr std::uint64_t kServeCheckpointRecords = 64;
constexpr int kRecoveryRepeats = 15;
constexpr int kSmokeRecoveryRepeats = 2;
/// Tail percentile, fixed so that it does not move with the sample
/// count: a 10 s phase has 4 000 reports (40 beyond p99) and 1 000 PINGs
/// (10 beyond).
constexpr double kTailPercentile = 99.0;
/// A run that has not drained this long after its last tick is a hang.
constexpr double kDrainTimeoutS = 30.0;

FleetOptions Options() {
  FleetOptions options;
  options.stream.window_length = kWindow;
  options.stream.slide_step = kSlide;
  options.stream.min_length_xi = kXi;
  options.stream.threads = 1;
  return options;
}

DurableOptions Durability(const std::string& state_dir,
                          frechet_motif::DurableFs* fs,
                          std::uint64_t checkpoint_records) {
  DurableOptions durable;
  durable.state_dir = state_dir;
  durable.checkpoint_interval_records = checkpoint_records;
  durable.sync_each_record = true;
  durable.fs = fs;
  return durable;
}

/// The library's PosixFs with the flush of Sync left out. The state dir
/// has to live inside the checkout, and a checkout may sit on a shared
/// disk: there, interleaved runs read a p50 report latency of 0.95 to
/// 3.5 ms with an fsync per record, against 0.64 ms give or take 2 % on
/// tmpfs. A tmpfs fsync does no work, so leaving the flush out gives a
/// tmpfs state dir's costs, while every other call, and Sync's check
/// that the file exists, runs the program's own code.
class NoFlushFs final : public frechet_motif::DurableFs {
 public:
  frechet_motif::StatusOr<std::string> ReadFile(
      const std::string& path) override {
    return posix_.ReadFile(path);
  }
  frechet_motif::Status WriteFile(const std::string& path,
                                  std::string_view data) override {
    return posix_.WriteFile(path, data);
  }
  frechet_motif::Status Append(const std::string& path,
                               std::string_view data) override {
    return posix_.Append(path, data);
  }
  frechet_motif::Status Sync(const std::string& path) override {
    const frechet_motif::StatusOr<bool> exists = posix_.Exists(path);
    if (!exists.ok()) return exists.status();
    if (!exists.value()) {
      return frechet_motif::Status::NotFound("no such file: " + path);
    }
    return frechet_motif::Status::Ok();
  }
  frechet_motif::Status Rename(const std::string& from,
                               const std::string& to) override {
    return posix_.Rename(from, to);
  }
  frechet_motif::Status Remove(const std::string& path) override {
    return posix_.Remove(path);
  }
  frechet_motif::StatusOr<bool> Exists(const std::string& path) override {
    return posix_.Exists(path);
  }
  frechet_motif::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return posix_.ListDir(dir);
  }
  frechet_motif::Status CreateDir(const std::string& dir) override {
    return posix_.CreateDir(dir);
  }

 private:
  PosixFs posix_;
};

/// The wire text of every tick: stream s sends its k-th point at tick
/// s + k, so the streams' slides are one tick apart.
struct Feed {
  std::vector<std::string> ticks;
  /// row_ends[t][r]: offset just past row r of tick t, within the tick.
  std::vector<std::vector<std::size_t>> row_ends;
  std::vector<std::vector<std::size_t>> row_streams;
};

/// The first kFillTicks points of every stream, which the crashed
/// process journals, come from kSetupSeed, so the state dir that set-up
/// recovers does not depend on --seed; the points after them come from
/// the seed.
constexpr std::uint64_t kSetupSeed = 0;

Feed MakeFeed(std::uint64_t seed, Index ticks) {
  auto make = [](std::uint64_t from, int s, Index length) {
    frechet_motif::DatasetOptions options;
    options.length = length;
    options.seed = from * 1000003 + 7777 + static_cast<std::uint64_t>(s);
    return ValueOrDie(
        frechet_motif::MakeDataset(frechet_motif::DatasetKind::kGeoLifeLike,
                                   options),
        "MakeDataset");
  };
  std::vector<frechet_motif::Trajectory> fill;
  std::vector<frechet_motif::Trajectory> run;
  for (int s = 0; s < kStreams; ++s) {
    fill.push_back(make(kSetupSeed, s, kFillTicks));
    run.push_back(make(seed, s, ticks - kFillTicks));
  }
  Feed feed;
  for (Index t = 0; t < ticks; ++t) {
    std::string text;
    std::vector<std::size_t> ends;
    std::vector<std::size_t> ids;
    for (int s = 0; s < kStreams && s <= t; ++s) {
      char row[96];
      const Index k = t - s;
      const frechet_motif::Point& p =
          k < kFillTicks ? fill[s][k] : run[s][k - kFillTicks];
      std::snprintf(row, sizeof(row), "%d,%.17g,%.17g\n", s, p.lat(), p.lon());
      text += row;
      ends.push_back(text.size());
      ids.push_back(static_cast<std::size_t>(s));
    }
    feed.ticks.push_back(std::move(text));
    feed.row_ends.push_back(std::move(ends));
    feed.row_streams.push_back(std::move(ids));
  }
  return feed;
}

/// The arrivals of tick t, parsed from its wire text exactly as the
/// server parses them.
std::vector<FleetArrival> Arrivals(const Feed& feed, Index t) {
  std::vector<FleetArrival> batch;
  const std::string& text = feed.ticks[t];
  std::size_t begin = 0;
  for (std::size_t end : feed.row_ends[t]) {
    FleetArrival a;
    const std::string line = text.substr(begin, end - begin - 1);
    if (frechet_motif::ParseFleetCsvRow(line, &a.stream, &a.point.x,
                                        &a.point.y, &a.timestamp,
                                        &a.has_timestamp) !=
        frechet_motif::CsvRow::kPoint) {
      std::fprintf(stderr, "pipebench: unparsable feed row %s\n",
                   line.c_str());
      std::exit(2);
    }
    batch.push_back(a);
    begin = end;
  }
  return batch;
}

/// Integer field `key` of a one-line JSON frame (-1 when absent).
long long Field(const std::string& frame, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = frame.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(frame.c_str() + at + needle.size(), nullptr, 10);
}

bool IsType(const std::string& frame, const char* type) {
  return frame.find(std::string("\"type\":\"") + type + "\"") !=
         std::string::npos;
}

// --- Client side ----------------------------------------------------

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Die("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Die("connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool eof() const { return eof_; }

  void Send(const std::string& bytes) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + at, bytes.size() - at, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) Die("send");
      at += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is buffered without blocking; appends each complete
  /// line (with the offset just past it) to `lines`.
  void Poll(std::vector<std::pair<std::string, std::size_t>>* lines) {
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) {
        eof_ = true;
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        eof_ = true;  // reset by the server: treated as closed
        return;
      }
      for (ssize_t k = 0; k < n; ++k) {
        pending_ += buf[k];
        ++received_;
        if (buf[k] == '\n') {
          lines->emplace_back(std::move(pending_), received_);
          pending_.clear();
        }
      }
    }
  }

  /// Blocks until one line arrives (handshakes only).
  std::string ReadLine() {
    std::vector<std::pair<std::string, std::size_t>> lines;
    while (lines.empty()) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) Die("handshake timed out");
      Poll(&lines);
      if (eof_ && lines.empty()) Die("closed during handshake");
    }
    if (lines.size() > 1) Die("unexpected frames during handshake");
    return lines.front().first;
  }

 private:
  /// Ends the process at once: the server thread is still running, so
  /// static destructors must not run under it.
  [[noreturn]] static void Die(const char* what) {
    std::fprintf(stderr, "pipebench: serve_durable client: %s (%s)\n", what,
                 std::strerror(errno));
    std::_Exit(2);
  }

  int fd_ = -1;
  std::string pending_;
  std::size_t received_ = 0;
  bool eof_ = false;
};

/// Report frames of an in-process engine fed the same ticks, per stream
/// and in order, from the first measured tick on.
using Frames = std::vector<std::vector<std::string>>;

/// A report frame the subscriber read and found equal to the oracle's.
/// Its bytes are compared as they arrive and then dropped, so that the
/// client's memory does not grow with the run.
struct ReceivedReport {
  std::size_t stream;
  Index tick;  // measured tick whose row completed the report's slide
  std::int64_t dfd_cells;
  Clock::time_point read;
  std::size_t end_offset;  // on the subscriber connection
};

struct Phase {
  double setup_s = 0.0;
  bool restored_snapshot = false;
  std::uint64_t replayed_records = 0;
  DurableCounters recovery;  // file reads of the median recovery (traced)
  DurableCounters durable;   // during the measured loop (traced)
  Clock::time_point start;
  Index ticks_sent = 0;
  std::int64_t points_sent = 0;
  std::int64_t pings_sent = 0;
  std::vector<Clock::time_point> tick_sent;
  std::vector<std::size_t> tick_offset;  // feed bytes before each tick
  std::vector<double> late_ms;
  std::vector<double> ping_ms;
  std::vector<ReceivedReport> reports;
  /// Frames compared so far, per stream, and how many differed from the
  /// oracle's (or came for no stream of the feed).
  std::vector<std::size_t> frames_compared =
      std::vector<std::size_t>(kStreams);
  std::int64_t frame_mismatches = 0;
  frechet_motif::ServeStats stats;
  std::int64_t late_dropped = 0;
  std::vector<std::shared_ptr<SocketLog>> sockets;
  std::vector<SeamCall> fs_calls;
  bool drained = false;
  /// Peak RSS while serving: before the final checkpoint of Shutdown.
  double peak_rss_mb = 0.0;
};

Clock::time_point Due(const Phase& p, Index i) {
  return p.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / kTicksPerSecond));
}

/// The measured tick whose row completed the report's slide.
Index ReportTick(const std::string& frame) {
  return static_cast<Index>(Field(frame, "stream") +
                            Field(frame, "window_start") + kWindow - 1) -
         kFillTicks;
}

/// The self-test's dropped frame: the client discards the report frame
/// it reads as this one, unchecked.
constexpr std::int64_t kDroppedFrame = 50;

Phase RunPhase(const Config& config, const Feed& feed, const Frames& expected,
               Index run_ticks, bool traced) {
  Phase phase;
  const HaversineMetric metric;
  namespace fs = std::filesystem;
  const std::string state_dir = config.work_dir + "/serve_state";
  const std::string crashed_dir = config.work_dir + "/serve_crashed";
  fs::remove_all(state_dir);
  fs::remove_all(crashed_dir);

  // The crashed process: journals kFillTicks ticks, then stops without
  // a final checkpoint. Not timed.
  {
    NoFlushFs fill_fs;
    DurableFleet fleet = ValueOrDie(
        DurableFleet::Open(
            Options(), metric,
            Durability(state_dir, &fill_fs, kFillCheckpointRecords)),
        "DurableFleet::Open");
    for (int s = 0; s < kStreams; ++s) {
      ValueOrDie(fleet.AddStream(), "AddStream");
    }
    for (Index t = 0; t < kFillTicks; ++t) {
      ValueOrDie(fleet.Ingest(Arrivals(feed, t)), "DurableFleet::Ingest");
    }
  }
  fs::rename(state_dir, crashed_dir);

  // Set-up: the server recovers the crashed state dir, several times
  // from a fresh copy of the same files; the median repeat is reported.
  // Each repeat gets its own PosixFs, whose descriptor cache would
  // otherwise point into the copy it replaced.
  std::unique_ptr<NoFlushFs> posix_fs;
  std::unique_ptr<TimedFs> timed_fs;
  std::optional<MotifServer> server;
  std::vector<std::pair<double, DurableCounters>> setups;
  const int repeats = config.smoke ? kSmokeRecoveryRepeats : kRecoveryRepeats;
  for (int r = 0; r < repeats; ++r) {
    server.reset();
    fs::remove_all(state_dir);
    fs::copy(crashed_dir, state_dir, fs::copy_options::recursive);
    posix_fs = std::make_unique<NoFlushFs>();
    timed_fs = std::make_unique<TimedFs>(posix_fs.get());
    ServeOptions options;
    options.fleet = Options();
    options.durable = Durability(
        state_dir,
        traced ? static_cast<frechet_motif::DurableFs*>(timed_fs.get())
               : posix_fs.get(),
        kServeCheckpointRecords);
    const Clock::time_point t0 = Clock::now();
    server = ValueOrDie(MotifServer::Create(options, metric),
                        "MotifServer::Create");
    setups.emplace_back(SecondsBetween(t0, Clock::now()),
                        timed_fs->counters());
  }
  std::sort(setups.begin(), setups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  phase.setup_s = setups[setups.size() / 2].first;
  phase.recovery = setups[setups.size() / 2].second;
  phase.restored_snapshot = server->durable()->recovery().restored_snapshot;
  phase.replayed_records = server->durable()->recovery().replayed_records;
  timed_fs->ResetCounters();

  frechet_motif::PosixListener posix = ValueOrDie(
      frechet_motif::PosixListener::Create("127.0.0.1", 0),
      "PosixListener::Create");
  TimedListener timed_listener(&posix);
  frechet_motif::ServeListener& listener =
      traced ? static_cast<frechet_motif::ServeListener&>(timed_listener)
             : posix;
  std::atomic<bool> stop{false};
  frechet_motif::ServeLoopOptions loop;
  loop.stop_atomic = &stop;
  // The server loop and the client both busy-poll. On a VM, waking an
  // idle vCPU moved the p50 report latency by 30 % from run to run;
  // polling keeps that out, so the figures are the push path's own.
  loop.poll_interval_ms = 0;
  loop.max_runtime_ms = static_cast<std::int64_t>(
      (config.seconds + 2 * kDrainTimeoutS) * 1e3);
  frechet_motif::Status loop_status;
  std::thread server_thread([&] {
    loop_status = frechet_motif::RunServeLoop(*server, listener, loop);
  });

  {
    Connection feed_conn(posix.port());
    feed_conn.ReadLine();  // hello
    Connection sub(posix.port());
    sub.ReadLine();  // hello
    sub.Send("SUB all\n");
    sub.ReadLine();  // subscribed
    Connection probe(posix.port());
    probe.ReadLine();  // hello

    // The open loop, spinning: rows and PINGs go out when due, however
    // late the server is, and latencies count from the due time.
    std::vector<std::pair<std::string, std::size_t>> lines;
    std::deque<Clock::time_point> pings_due;
    std::size_t feed_bytes = 0;
    Index ping = 0;
    phase.start = Clock::now() + std::chrono::milliseconds(20);
    std::optional<Clock::time_point> drain_since;
    std::int64_t frames_read = 0;
    Clock::time_point next_stats;
    std::int64_t acknowledged = -1;
    while (!sub.eof()) {
      Clock::time_point now = Clock::now();
      if (phase.ticks_sent < run_ticks && now >= Due(phase, phase.ticks_sent)) {
        const Index t = kFillTicks + phase.ticks_sent;
        phase.tick_offset.push_back(feed_bytes);
        feed_conn.Send(feed.ticks[t]);
        feed_bytes += feed.ticks[t].size();
        phase.tick_sent.push_back(now);
        phase.late_ms.push_back(
            SecondsBetween(Due(phase, phase.ticks_sent), now) * 1e3);
        phase.points_sent +=
            static_cast<std::int64_t>(feed.row_ends[t].size());
        ++phase.ticks_sent;
        continue;
      }
      const Clock::time_point ping_due =
          phase.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(ping * kPingPeriodS));
      if (phase.ticks_sent < run_ticks && now >= ping_due) {
        probe.Send("PING\n");
        pings_due.push_back(ping_due);
        ++phase.pings_sent;
        ++ping;
        continue;
      }
      if (phase.ticks_sent == run_ticks) {
        // Every tick sent: ask for STATS until every point is
        // acknowledged, then drain the server.
        if (!drain_since) {
          drain_since = now;
          next_stats = now;
        }
        if (SecondsBetween(*drain_since, now) > kDrainTimeoutS) {
          std::fprintf(stderr, "pipebench: serve_durable did not drain\n");
          std::_Exit(2);  // as in Connection::Die
        }
        if (acknowledged == phase.points_sent) {
          stop.store(true);
        } else if (now >= next_stats) {
          probe.Send("STATS\n");
          next_stats = now + std::chrono::milliseconds(20);
        }
      }
      sub.Poll(&lines);
      now = Clock::now();
      for (const auto& [line, end] : lines) {
        if (!IsType(line, "report")) continue;
        ++frames_read;
        if (config.fault == Fault::kDropFrame && frames_read == kDroppedFrame) {
          continue;
        }
        const long long stream = Field(line, "stream");
        if (stream < 0 || stream >= kStreams) {
          ++phase.frame_mismatches;
          continue;
        }
        const auto s = static_cast<std::size_t>(stream);
        const std::size_t k = phase.frames_compared[s]++;
        if (k >= expected[s].size() || line != expected[s][k]) {
          ++phase.frame_mismatches;
          continue;
        }
        phase.reports.push_back(ReceivedReport{
            s, ReportTick(line), Field(line, "dfd_cells"), now, end});
      }
      lines.clear();
      probe.Poll(&lines);
      now = Clock::now();
      for (auto& [line, end] : lines) {
        if (IsType(line, "pong") && !pings_due.empty()) {
          phase.ping_ms.push_back(
              SecondsBetween(pings_due.front(), now) * 1e3);
          pings_due.pop_front();
        } else if (IsType(line, "stats")) {
          acknowledged = Field(line, "points_ingested");
        }
      }
      lines.clear();
    }
    phase.drained = pings_due.empty();
  }
  stop.store(true);
  server_thread.join();
  CheckOk(loop_status, "RunServeLoop");
  phase.peak_rss_mb = PeakRssMb();
  phase.stats = server->stats();
  phase.late_dropped = server->fleet_stats().late_dropped;
  CheckOk(server->Shutdown(), "MotifServer::Shutdown");
  phase.durable = timed_fs->counters();
  phase.sockets = timed_listener.logs();
  phase.fs_calls = timed_fs->calls();
  server.reset();
  fs::remove_all(state_dir);
  fs::remove_all(crashed_dir);
  return phase;
}

/// The filesystem the state dir is on, for the run's notes: NoFlushFs
/// leaves the flush out, but every other call still goes to it.
std::string FilesystemOf(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case TMPFS_MAGIC:
      return "tmpfs";
    case EXT4_SUPER_MAGIC:
      return "ext2/3/4";
    case OVERLAYFS_SUPER_MAGIC:
      return "overlayfs";
    case XFS_SUPER_MAGIC:
      return "xfs";
    case BTRFS_SUPER_MAGIC:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "magic 0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

Frames Oracle(const Feed& feed, Index ticks) {
  const HaversineMetric metric;
  MotifFleetEngine engine = ValueOrDie(
      MotifFleetEngine::Create(Options(), metric), "MotifFleetEngine::Create");
  for (int s = 0; s < kStreams; ++s) {
    ValueOrDie(engine.AddStream(), "AddStream");
  }
  Frames frames(kStreams);
  for (Index t = 0; t < kFillTicks + ticks; ++t) {
    const frechet_motif::FleetReport report =
        ValueOrDie(engine.Ingest(Arrivals(feed, t)), "Ingest");
    if (t < kFillTicks) continue;
    for (const auto& u : report.updates) {
      frames[u.stream].push_back(frechet_motif::SerializeReportFrame(u));
    }
  }
  return frames;
}

void CheckPhase(const Frames& expected, const Phase& phase, Result* result) {
  const frechet_motif::ServeStats& st = phase.stats;
  bool all_compared = true;
  for (std::size_t s = 0; s < expected.size(); ++s) {
    all_compared =
        all_compared && phase.frames_compared[s] == expected[s].size();
  }
  if (phase.frame_mismatches > 0 || !all_compared) {
    result->FailGate(
        "serve_durable: report frames differ from an in-process engine's");
  }
  if (st.frames_dropped != 0) {
    result->FailGate("serve_durable: the server dropped " +
                     std::to_string(st.frames_dropped) + " frames");
  }
  if (st.points_ingested != phase.points_sent || st.parse_errors != 0 ||
      st.engine_errors != 0) {
    result->FailGate("serve_durable: not every point was acknowledged");
  }
  if (!phase.restored_snapshot || phase.replayed_records < 1) {
    result->FailGate(
        "serve_durable: recovery did not restore a snapshot and replay "
        "the journal tail");
  }
  if (!phase.drained) {
    result->FailGate("serve_durable: a PING went unanswered");
  }
  result->AddAttempted(phase.points_sent + phase.pings_sent);
  result->AddFailed(st.parse_errors + st.engine_errors + st.frames_dropped +
                    st.rejected_busy + phase.late_dropped +
                    (phase.points_sent - st.points_ingested) +
                    (phase.pings_sent -
                     static_cast<std::int64_t>(phase.ping_ms.size())));
}

std::vector<double> ReportLatenciesMs(const Phase& p) {
  std::vector<double> out;
  for (const ReceivedReport& r : p.reports) {
    out.push_back(SecondsBetween(Due(p, r.tick), r.read) * 1e3);
  }
  return out;
}

double AchievedPointsPerSecond(const Phase& p) {
  Clock::time_point last = p.start;
  for (const ReceivedReport& r : p.reports) last = std::max(last, r.read);
  return static_cast<double>(p.points_sent) / SecondsBetween(p.start, last);
}

/// A report's stay in the server: from the feed Read that returned its
/// completing row to the subscriber Write that carried its frame.
bool Residence(const Phase& p, const Feed& feed, const ReceivedReport& r,
               Clock::time_point* read_at, Clock::time_point* write_at) {
  if (p.sockets.size() < 2) return false;  // untraced: no socket logs
  const Index t = kFillTicks + r.tick;
  std::size_t row_end = 0;
  for (std::size_t k = 0; k < feed.row_streams[t].size(); ++k) {
    if (feed.row_streams[t][k] == r.stream) row_end = feed.row_ends[t][k];
  }
  return SocketLog::TimeOf(p.sockets[0]->reads,
                           p.tick_offset[r.tick] + row_end, read_at) &&
         SocketLog::TimeOf(p.sockets[1]->writes, r.end_offset, write_at);
}

std::vector<double> ResidenceMs(const Phase& p, const Feed& feed) {
  std::vector<double> out;
  for (const ReceivedReport& r : p.reports) {
    Clock::time_point read_at;
    Clock::time_point write_at;
    if (Residence(p, feed, r, &read_at, &write_at)) {
      out.push_back(SecondsBetween(read_at, write_at) * 1e3);
    }
  }
  return out;
}

/// The seam calls on the server's lane, and per report a span from its
/// due time to the client's read, with the client's send and the
/// server-side residence as children sharing the report's id.
void AddSpans(const Phase& p, const Feed& feed, Tracer* tracer) {
  for (std::size_t k = 0; k < p.sockets.size(); ++k) {
    for (const SeamCall& c : p.sockets[k]->calls) {
      tracer->Add(c.name, tracer->ToTracerTime(c.start),
                  tracer->ToTracerTime(c.end), static_cast<std::int64_t>(k),
                  -1, 1);
    }
  }
  for (const SeamCall& c : p.fs_calls) {
    tracer->Add(c.name, tracer->ToTracerTime(c.start),
                tracer->ToTracerTime(c.end), 0, -1, 1);
  }
  for (std::size_t k = 0; k < p.reports.size(); ++k) {
    const ReceivedReport& r = p.reports[k];
    const auto id = static_cast<std::int64_t>(k);
    const Index i = r.tick;
    const int parent =
        tracer->Add("serve.report", tracer->ToTracerTime(Due(p, i)),
                    tracer->ToTracerTime(r.read), id);
    tracer->Add("client.feed_send", tracer->ToTracerTime(Due(p, i)),
                tracer->ToTracerTime(p.tick_sent[i]), id, parent);
    Clock::time_point read_at;
    Clock::time_point write_at;
    if (Residence(p, feed, r, &read_at, &write_at)) {
      tracer->Add("serve.residence", tracer->ToTracerTime(read_at),
                  tracer->ToTracerTime(write_at), id, parent, 1);
    }
  }
}

}  // namespace

void RunServeDurable(const Config& config, Result* result) {
  // glibc adapts its mmap threshold to the block sizes freed so far, so
  // whether a checkpoint's 2 MB buffers took fresh pages depended on the
  // run's history, and peak RSS moved by 4 MB between seeds. A fixed
  // threshold (glibc's initial 128 KiB) removes that.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto run_ticks = static_cast<Index>(config.seconds * kTicksPerSecond);
  const Feed feed = MakeFeed(config.seed, kFillTicks + run_ticks);
  const Frames expected = Oracle(feed, run_ticks);

  const double baseline_mb = RssMb();
  Phase phase = RunPhase(config, feed, expected, run_ticks, /*traced=*/false);
  CheckPhase(expected, phase, result);
  const std::vector<double> latencies = ReportLatenciesMs(phase);

  if (!config.trace) {
    const TailLatency tail = Tail(latencies, kTailPercentile);
    const TailLatency ping = Tail(phase.ping_ms, kTailPercentile);
    const TailLatency late = Tail(phase.late_ms, kTailPercentile);
    result->Set("points_per_s", AchievedPointsPerSecond(phase), "points/s");
    result->Set("report_latency_p50_ms", Median(latencies), "ms");
    result->Set("report_latency_tail_ms", tail.value, "ms");
    result->Set("ping_latency_tail_ms", ping.value, "ms");
    result->Set("peak_rss_mb", phase.peak_rss_mb - baseline_mb, "MiB");
    result->Set("setup_s", phase.setup_s, "s");
    result->Note(DescribeTail("report_latency_tail_ms", tail));
    result->Note(DescribeTail("ping_latency_tail_ms", ping));
    const double offered = kStreams * kTicksPerSecond;
    const double achieved = AchievedPointsPerSecond(phase);
    char rates[240];
    std::snprintf(rates, sizeof(rates),
                  "open loop: offered %.1f points/s, achieved %.1f; "
                  "generator late p%g %.3f ms; replayed %llu records; "
                  "state dir on %s",
                  offered, achieved, late.percentile, late.value,
                  static_cast<unsigned long long>(phase.replayed_records),
                  FilesystemOf(config.work_dir).c_str());
    result->Note(rates);
    if (achieved < 0.99 * offered) {
      result->Note(
          "note: the achieved rate fell below 99 % of the offered rate: the "
          "server's backlog grew, so latencies include queueing");
    }
    return;
  }

  Tracer tracer;
  const Phase traced =
      RunPhase(config, feed, expected, run_ticks, /*traced=*/true);
  CheckPhase(expected, traced, result);
  AddSpans(traced, feed, &tracer);
  WriteTrace(config, tracer);

  std::int64_t read_calls = 0, bytes_in = 0, write_calls = 0, bytes_out = 0,
               would_block = 0;
  double read_s = 0.0, write_s = 0.0;
  for (const auto& log : traced.sockets) {
    read_calls += log->read_calls;
    bytes_in += log->bytes_in;
    read_s += log->read_s;
    write_calls += log->write_calls;
    bytes_out += log->bytes_out;
    write_s += log->write_s;
    would_block += log->write_would_block;
  }
  const std::vector<double> residence = ResidenceMs(traced, feed);
  std::int64_t cells = 0;
  for (const ReceivedReport& r : traced.reports) {
    cells += r.dfd_cells;
  }
  const DurableCounters& d = traced.durable;
  result->Set("stream.dfd_cells_per_report",
              traced.reports.empty()
                  ? 0.0
                  : static_cast<double>(cells) /
                        static_cast<double>(traced.reports.size()),
              "count");
  result->Set("stream.reports", static_cast<double>(traced.reports.size()),
              "count");
  result->Set("serve.read_calls", static_cast<double>(read_calls), "count");
  result->Set("serve.bytes_in", static_cast<double>(bytes_in), "bytes");
  result->Set("serve.read_s", read_s, "s");
  result->Set("serve.write_calls", static_cast<double>(write_calls), "count");
  result->Set("serve.bytes_out", static_cast<double>(bytes_out), "bytes");
  result->Set("serve.write_s", write_s, "s");
  result->Set("serve.write_would_block", static_cast<double>(would_block),
              "count");
  result->Set("serve.residence_p50_ms", Median(residence), "ms");
  result->Set("serve.residence_tail_ms",
              Tail(residence, kTailPercentile).value, "ms");
  result->Set("serve.frames_pushed",
              static_cast<double>(traced.stats.frames_pushed), "count");
  result->Set("serve.frames_dropped",
              static_cast<double>(traced.stats.frames_dropped), "count");
  // The rate the generator really sent at: its last tick went out one
  // period before the schedule's end.
  result->Set("serve.offered_points_per_s",
              static_cast<double>(traced.points_sent) /
                  (SecondsBetween(traced.start, traced.tick_sent.back()) +
                   1.0 / kTicksPerSecond),
              "points/s");
  result->Set("serve.generator_late_tail_ms",
              Tail(traced.late_ms, kTailPercentile).value,
              "ms");
  result->Set("durable.journal_appends", static_cast<double>(d.journal_appends),
              "count");
  result->Set("durable.journal_bytes", static_cast<double>(d.journal_bytes),
              "bytes");
  result->Set("durable.journal_append_s", d.journal_append_s, "s");
  result->Set("durable.syncs", static_cast<double>(d.syncs), "count");
  result->Set("durable.sync_s", d.sync_s, "s");
  result->Set("durable.checkpoints", static_cast<double>(d.checkpoints),
              "count");
  result->Set("durable.checkpoint_bytes",
              static_cast<double>(d.checkpoint_bytes), "bytes");
  result->Set("durable.checkpoint_s", d.checkpoint_s, "s");
  result->Set("durable.recover_read_bytes",
              static_cast<double>(traced.recovery.read_bytes), "bytes");
  result->Set("durable.recover_read_s", traced.recovery.read_s, "s");
  result->Set("durable.replayed_records",
              static_cast<double>(traced.replayed_records), "count");
  const std::vector<double> traced_latencies = ReportLatenciesMs(traced);
  result->Set("trace.overhead_points_per_s",
              AchievedPointsPerSecond(traced) - AchievedPointsPerSecond(phase),
              "points/s");
  result->Set("trace.overhead_latency_p50_ms",
              Median(traced_latencies) - Median(latencies), "ms");
  FillUnmeasuredLayers(result);
}

}  // namespace pipebench
