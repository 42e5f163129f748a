#include "timed_seams.h"

#include <algorithm>

namespace pipebench {

using frechet_motif::IoResult;
using frechet_motif::IoStatus;
using frechet_motif::ServeSocket;
using frechet_motif::Status;
using frechet_motif::StatusOr;

namespace {

bool IsSnapshot(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return path.compare(slash == std::string::npos ? 0 : slash + 1, 5,
                      "snap-") == 0;
}

}  // namespace

double TimedFs::Record(const char* name, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  calls_.push_back(SeamCall{name, start, end});
  return SecondsBetween(start, end);
}

StatusOr<std::string> TimedFs::ReadFile(const std::string& path) {
  const Clock::time_point start = Clock::now();
  StatusOr<std::string> bytes = inner_->ReadFile(path);
  counters_.read_s += Record("durable.ReadFile", start);
  if (bytes.ok()) {
    counters_.read_bytes += static_cast<std::int64_t>(bytes.value().size());
  }
  return bytes;
}

Status TimedFs::WriteFile(const std::string& path, std::string_view data) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->WriteFile(path, data);
  const double s = Record("durable.WriteFile", start);
  if (IsSnapshot(path)) {
    ++counters_.checkpoints;
    counters_.checkpoint_bytes += static_cast<std::int64_t>(data.size());
    counters_.checkpoint_s += s;
  }
  return status;
}

Status TimedFs::Append(const std::string& path, std::string_view data) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Append(path, data);
  counters_.journal_append_s += Record("durable.Append", start);
  ++counters_.journal_appends;
  counters_.journal_bytes += static_cast<std::int64_t>(data.size());
  return status;
}

Status TimedFs::Sync(const std::string& path) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Sync(path);
  const double s = Record("durable.Sync", start);
  if (IsSnapshot(path)) {
    counters_.checkpoint_s += s;
  } else {
    ++counters_.syncs;
    counters_.sync_s += s;
  }
  return status;
}

Status TimedFs::Rename(const std::string& from, const std::string& to) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Rename(from, to);
  const double s = Record("durable.Rename", start);
  if (IsSnapshot(to)) counters_.checkpoint_s += s;
  return status;
}

Status TimedFs::Remove(const std::string& path) {
  const Clock::time_point start = Clock::now();
  Status status = inner_->Remove(path);
  Record("durable.Remove", start);
  return status;
}

StatusOr<bool> TimedFs::Exists(const std::string& path) {
  return inner_->Exists(path);
}

StatusOr<std::vector<std::string>> TimedFs::ListDir(const std::string& dir) {
  return inner_->ListDir(dir);
}

Status TimedFs::CreateDir(const std::string& dir) {
  return inner_->CreateDir(dir);
}

bool SocketLog::TimeOf(const std::vector<Io>& log, std::size_t offset,
                       Clock::time_point* at) {
  const auto it = std::lower_bound(
      log.begin(), log.end(), offset,
      [](const Io& io, std::size_t want) { return io.total < want; });
  if (it == log.end()) return false;
  *at = it->end;
  return true;
}

IoResult TimedSocket::Read(char* buf, std::size_t cap) {
  const Clock::time_point start = Clock::now();
  const IoResult r = inner_->Read(buf, cap);
  const Clock::time_point end = Clock::now();
  ++log_->read_calls;
  log_->read_s += SecondsBetween(start, end);
  if (r.status == IoStatus::kOk && r.bytes > 0) {
    log_->bytes_in += static_cast<std::int64_t>(r.bytes);
    log_->reads.push_back(
        SocketLog::Io{end, static_cast<std::size_t>(log_->bytes_in)});
    log_->calls.push_back(SeamCall{"serve.Read", start, end});
  }
  return r;
}

IoResult TimedSocket::Write(const char* data, std::size_t len) {
  const Clock::time_point start = Clock::now();
  const IoResult r = inner_->Write(data, len);
  const Clock::time_point end = Clock::now();
  ++log_->write_calls;
  log_->write_s += SecondsBetween(start, end);
  if (r.status == IoStatus::kWouldBlock) ++log_->write_would_block;
  if (r.status == IoStatus::kOk && r.bytes > 0) {
    log_->bytes_out += static_cast<std::int64_t>(r.bytes);
    log_->writes.push_back(
        SocketLog::Io{end, static_cast<std::size_t>(log_->bytes_out)});
    log_->calls.push_back(SeamCall{"serve.Write", start, end});
  }
  return r;
}

StatusOr<std::unique_ptr<ServeSocket>> TimedListener::Accept() {
  StatusOr<std::unique_ptr<ServeSocket>> socket = inner_->Accept();
  if (!socket.ok() || socket.value() == nullptr) return socket;
  logs_.push_back(std::make_shared<SocketLog>());
  return std::unique_ptr<ServeSocket>(
      new TimedSocket(std::move(socket).value(), logs_.back()));
}

}  // namespace pipebench
