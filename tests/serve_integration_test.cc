// End-to-end serve tests over real TCP sockets: the poll(2) loop, a
// blocking client, graceful drain on the stop flag, and the durable
// checkpoint/restart resume contract. The protocol itself is covered
// socket-free in serve_test.cc and serve_fault_test.cc; this file
// proves the production transport glues the same pieces together.

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geo/metric.h"
#include "gtest/gtest.h"
#include "serve/motif_server.h"
#include "serve/serve_loop.h"
#include "serve/serve_socket.h"
#include "serve_test_util.h"
#include "stream/motif_fleet_engine.h"

namespace frechet_motif {
namespace {

using testing_util::FramesOfType;
using testing_util::OracleReportFrames;

ServeOptions SmallOptions() {
  ServeOptions options;
  options.fleet.stream.window_length = 8;
  options.fleet.stream.slide_step = 2;
  options.fleet.stream.min_length_xi = 2;
  return options;
}

std::string Row(std::size_t stream, double lat, double lon) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu,%.6f,%.6f\n", stream, lat, lon);
  return buf;
}

FleetArrival Arrival(std::size_t stream, double lat, double lon) {
  FleetArrival a;
  a.stream = stream;
  a.point = LatLon(lat, lon);
  return a;
}

/// Blocking client socket with receive timeouts; sends suppress
/// SIGPIPE so a racing server close cannot kill the test process.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(0, ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr));
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + at, bytes.size() - at,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      at += static_cast<std::size_t>(n);
    }
  }

  /// Half-close: no more ingest; the server flushes and closes.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF (or the receive timeout, which fails the test).
  std::string ReadAll() {
    std::string all;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n == 0) break;
      if (n < 0) {
        ADD_FAILURE() << "recv failed: " << std::strerror(errno);
        break;
      }
      all.append(buf, static_cast<std::size_t>(n));
    }
    return all;
  }

  /// Reads until `frames` newline-terminated frames have arrived.
  std::string ReadFrames(int frames) {
    std::string all;
    char buf[4096];
    int seen = 0;
    while (seen < frames) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) {
        ADD_FAILURE() << "recv ended early: " << std::strerror(errno);
        break;
      }
      for (ssize_t k = 0; k < n; ++k) {
        if (buf[k] == '\n') ++seen;
      }
      all.append(buf, static_cast<std::size_t>(n));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

/// Runs RunServeLoop on a background thread until Stop() is called.
class LoopRunner {
 public:
  LoopRunner(MotifServer& server, ServeListener& listener) {
    options_.stop_atomic = &stop_;
    options_.poll_interval_ms = 20;
    thread_ = std::thread([this, &server, &listener] {
      status_ = RunServeLoop(server, listener, options_);
    });
  }

  Status Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return status_;
  }

  ~LoopRunner() { (void)Stop(); }

 private:
  std::atomic<bool> stop_{false};
  ServeLoopOptions options_;
  std::thread thread_;
  Status status_ = Status::Ok();
};

/// Feeds 30 round-robin points per stream over a real socket to a fresh
/// server and checks the wire path is lossless: the subscriber's report
/// frames are the oracle's, no frame is dropped, and every row sent is
/// ingested.
void FeedAndSubscribeOverSocket(std::size_t streams) {
  SCOPED_TRACE(::testing::Message() << streams << " streams");
  const ServeOptions options = SmallOptions();
  MotifServer server =
      std::move(MotifServer::Create(options, Euclidean())).value();
  PosixListener listener =
      std::move(PosixListener::Create("127.0.0.1", 0)).value();
  ASSERT_GT(listener.port(), 0);

  std::vector<FleetArrival> arrivals;
  std::string wire = "SUB reports\n";
  for (int i = 0; i < 30; ++i) {
    for (std::size_t s = 0; s < streams; ++s) {
      const double lat = 40.0 + 0.002 * ((i + static_cast<int>(s)) % 5);
      const double lon = -70.0 + 0.001 * i + 0.01 * static_cast<double>(s);
      arrivals.push_back(Arrival(s, lat, lon));
      wire += Row(s, lat, lon);
    }
  }

  std::string received;
  {
    LoopRunner loop(server, listener);
    Client client(listener.port());
    client.Send(wire);
    client.ShutdownWrite();
    received = client.ReadAll();
    ASSERT_TRUE(loop.Stop().ok());
  }

  const std::vector<std::string> want =
      OracleReportFrames(options.fleet, Euclidean(), arrivals);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want, FramesOfType(received, "report"));
  EXPECT_EQ(0, server.stats().frames_dropped);
  EXPECT_EQ(static_cast<std::int64_t>(arrivals.size()),
            server.stats().points_ingested);
  EXPECT_EQ(1, server.stats().closed_by_peer);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(ServeIntegration, RealSocketFeedAndSubscribeMatchesOracle) {
  for (const std::size_t streams : {1, 4, 8}) {
    FeedAndSubscribeOverSocket(streams);
  }
}

TEST(ServeIntegration, StopFlagDrainsConnectedSubscriber) {
  MotifServer server =
      std::move(MotifServer::Create(SmallOptions(), Euclidean())).value();
  PosixListener listener =
      std::move(PosixListener::Create("127.0.0.1", 0)).value();

  LoopRunner loop(server, listener);
  Client client(listener.port());
  client.Send("SUB reports\n");
  // hello + subscribed prove the connection is live before the drain.
  const std::string pre = client.ReadFrames(2);
  EXPECT_TRUE(testing_util::HasFrame(pre, "hello"));

  ASSERT_TRUE(loop.Stop().ok());  // SIGTERM equivalent: stop flag up
  // The drain delivered a bye and closed the socket (EOF).
  const std::string post = client.ReadAll();
  EXPECT_TRUE(testing_util::HasFrame(post, "bye"));
  EXPECT_TRUE(server.DrainComplete());
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(ServeIntegration, DurableDrainThenRestartResumesBitIdentically) {
  char tmpl[] = "/tmp/fmotif_serve_XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(tmpl));
  const std::string state_dir = std::string(tmpl) + "/state";

  ServeOptions options = SmallOptions();
  options.durable.state_dir = state_dir;
  options.durable.checkpoint_interval_records = 8;

  std::vector<FleetArrival> all;
  std::vector<std::string> wire_rows;
  for (int i = 0; i < 60; ++i) {
    const double lat = 40.0 + 0.002 * (i % 7);
    const double lon = -70.0 + 0.001 * i;
    all.push_back(Arrival(0, lat, lon));
    wire_rows.push_back(Row(0, lat, lon));
  }
  const int kSplit = 28;  // mid-window, not a checkpoint boundary

  std::string phase1;
  {
    MotifServer server =
        std::move(MotifServer::Create(options, Euclidean())).value();
    PosixListener listener =
        std::move(PosixListener::Create("127.0.0.1", 0)).value();
    LoopRunner loop(server, listener);
    Client client(listener.port());
    std::string wire = "SUB reports\n";
    for (int i = 0; i < kSplit; ++i) wire += wire_rows[i];
    client.Send(wire);
    client.ShutdownWrite();
    phase1 = client.ReadAll();
    ASSERT_TRUE(loop.Stop().ok());
    ASSERT_TRUE(server.Shutdown().ok());  // checkpoint + sync
  }

  std::string phase2;
  {
    MotifServer server =
        std::move(MotifServer::Create(options, Euclidean())).value();
    ASSERT_NE(nullptr, server.durable());
    // Recovery rebuilt the fleet to the acknowledged phase-1 state.
    EXPECT_EQ(1u, server.engine().stream_count());
    EXPECT_EQ(kSplit, static_cast<int>(server.fleet_stats().points_ingested));
    PosixListener listener =
        std::move(PosixListener::Create("127.0.0.1", 0)).value();
    LoopRunner loop(server, listener);
    Client client(listener.port());
    std::string wire = "SUB reports\n";
    for (int i = kSplit; i < 60; ++i) wire += wire_rows[i];
    client.Send(wire);
    client.ShutdownWrite();
    phase2 = client.ReadAll();
    ASSERT_TRUE(loop.Stop().ok());
    ASSERT_TRUE(server.Shutdown().ok());
  }

  // The concatenated report streams of the interrupted pair are
  // bit-identical to one uninterrupted oracle over the full feed.
  std::vector<std::string> got = FramesOfType(phase1, "report");
  for (std::string& f : FramesOfType(phase2, "report")) {
    got.push_back(std::move(f));
  }
  const std::vector<std::string> want =
      OracleReportFrames(options.fleet, Euclidean(), all);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want, got);
}

}  // namespace
}  // namespace frechet_motif
