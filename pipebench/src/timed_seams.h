#ifndef PIPEBENCH_TIMED_SEAMS_H_
#define PIPEBENCH_TIMED_SEAMS_H_

// Timing decorators for the two I/O seams of the serve tier, used by the
// traced serve_durable run: DurableFs (the durable layer's filesystem)
// and ServeListener/ServeSocket (the server's connections). Each call is
// forwarded, timed and counted. Everything here is touched by the server
// thread only while it runs; the main thread reads it after joining that
// thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"
#include "durable/durable_fs.h"
#include "serve/serve_socket.h"

namespace pipebench {

/// One timed call into a seam, kept for the trace.
struct SeamCall {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

struct DurableCounters {
  std::int64_t journal_appends = 0;
  std::int64_t journal_bytes = 0;
  double journal_append_s = 0.0;
  std::int64_t syncs = 0;  // journal fsyncs
  double sync_s = 0.0;
  std::int64_t checkpoints = 0;  // snapshot files written
  std::int64_t checkpoint_bytes = 0;
  double checkpoint_s = 0.0;  // every call on a snapshot file
  std::int64_t read_bytes = 0;
  double read_s = 0.0;
};

class TimedFs final : public frechet_motif::DurableFs {
 public:
  explicit TimedFs(frechet_motif::DurableFs* inner) : inner_(inner) {}

  const DurableCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = DurableCounters(); }
  const std::vector<SeamCall>& calls() const { return calls_; }

  frechet_motif::StatusOr<std::string> ReadFile(
      const std::string& path) override;
  frechet_motif::Status WriteFile(const std::string& path,
                                  std::string_view data) override;
  frechet_motif::Status Append(const std::string& path,
                               std::string_view data) override;
  frechet_motif::Status Sync(const std::string& path) override;
  frechet_motif::Status Rename(const std::string& from,
                               const std::string& to) override;
  frechet_motif::Status Remove(const std::string& path) override;
  frechet_motif::StatusOr<bool> Exists(const std::string& path) override;
  frechet_motif::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  frechet_motif::Status CreateDir(const std::string& dir) override;

 private:
  double Record(const char* name, Clock::time_point start);

  frechet_motif::DurableFs* inner_;
  DurableCounters counters_;
  std::vector<SeamCall> calls_;
};

/// Per-connection log of a TimedSocket. Shared between the socket (which
/// the server owns and may destroy) and the listener that made it.
struct SocketLog {
  struct Io {
    Clock::time_point end;
    std::size_t total;  // bytes moved on this side so far, after the call
  };
  std::vector<Io> reads;   // calls that moved bytes
  std::vector<Io> writes;
  std::vector<SeamCall> calls;
  std::int64_t read_calls = 0;
  std::int64_t bytes_in = 0;
  double read_s = 0.0;
  std::int64_t write_calls = 0;
  std::int64_t bytes_out = 0;
  double write_s = 0.0;
  std::int64_t write_would_block = 0;

  /// End of the first call whose running total reaches `offset` bytes.
  static bool TimeOf(const std::vector<Io>& log, std::size_t offset,
                     Clock::time_point* at);
};

class TimedSocket final : public frechet_motif::ServeSocket {
 public:
  TimedSocket(std::unique_ptr<frechet_motif::ServeSocket> inner,
              std::shared_ptr<SocketLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  frechet_motif::IoResult Read(char* buf, std::size_t cap) override;
  frechet_motif::IoResult Write(const char* data, std::size_t len) override;
  void Close() override { inner_->Close(); }
  int fd() const override { return inner_->fd(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<frechet_motif::ServeSocket> inner_;
  std::shared_ptr<SocketLog> log_;
};

/// Wraps every accepted socket in a TimedSocket; logs() holds one log per
/// accepted connection, in accept order.
class TimedListener final : public frechet_motif::ServeListener {
 public:
  explicit TimedListener(frechet_motif::ServeListener* inner)
      : inner_(inner) {}

  frechet_motif::StatusOr<std::unique_ptr<frechet_motif::ServeSocket>>
  Accept() override;
  int fd() const override { return inner_->fd(); }

  const std::vector<std::shared_ptr<SocketLog>>& logs() const {
    return logs_;
  }

 private:
  frechet_motif::ServeListener* inner_;
  std::vector<std::shared_ptr<SocketLog>> logs_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TIMED_SEAMS_H_
