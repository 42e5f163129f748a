#include "serve/motif_server.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "data/io.h"
#include "util/json_writer.h"

namespace frechet_motif {

namespace {

/// Streams listed in a `stats` frame; beyond this the array truncates
/// (the aggregate counters always cover every stream).
constexpr std::size_t kStatsFrameStreamCap = 128;

std::string ByeFrame(const std::string& reason) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("bye");
  w.Key("reason");
  w.String(reason);
  w.EndObject();
  return w.str() + "\n";
}

std::string SimpleFrame(const std::string& type) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String(type);
  w.EndObject();
  return w.str() + "\n";
}

std::string SubscribedFrame(const std::string& mode) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("subscribed");
  w.Key("mode");
  w.String(mode);
  w.EndObject();
  return w.str() + "\n";
}

std::string DroppedFrame(std::int64_t frames) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("dropped");
  w.Key("frames");
  w.Int(frames);
  w.EndObject();
  return w.str() + "\n";
}

std::string ErrorFrame(const std::string& code, std::int64_t line,
                       const std::string& message) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("error");
  w.Key("code");
  w.String(code);
  if (line > 0) {
    w.Key("line");
    w.Int(line);
  }
  w.Key("message");
  w.String(message);
  w.EndObject();
  return w.str() + "\n";
}

/// Uppercases ASCII in place (command verbs are case-insensitive).
std::string AsciiUpper(std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return s;
}

void StripTrailingCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

}  // namespace

std::string SerializeReportFrame(const FleetStreamUpdate& update) {
  const StreamUpdate& u = update.update;
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("report");
  w.Key("stream");
  w.Int(static_cast<std::int64_t>(update.stream));
  w.Key("window_start");
  w.Int(u.window_start);
  w.Key("window_points");
  w.Int(static_cast<std::int64_t>(u.window_points));
  w.Key("seeded");
  w.Bool(u.seeded);
  w.Key("carried");
  w.Bool(u.carried);
  w.Key("approx_eps");
  w.Double(u.approximation_epsilon);
  w.Key("found");
  w.Bool(u.motif.found);
  w.Key("distance_m");
  w.Double(u.motif.distance);
  w.Key("first");
  w.BeginArray();
  w.Int(static_cast<std::int64_t>(u.motif.best.i));
  w.Int(static_cast<std::int64_t>(u.motif.best.ie));
  w.EndArray();
  w.Key("second");
  w.BeginArray();
  w.Int(static_cast<std::int64_t>(u.motif.best.j));
  w.Int(static_cast<std::int64_t>(u.motif.best.je));
  w.EndArray();
  w.Key("dfd_cells");
  w.Int(u.stats.dfd_cells_computed);
  w.Key("total_subsets");
  w.Int(u.stats.total_subsets);
  w.Key("pruned_subsets");
  w.Int(u.stats.pruned_total());
  w.Key("subsets_evaluated");
  w.Int(u.stats.subsets_evaluated);
  w.EndObject();
  return w.str() + "\n";
}

std::string SerializeJoinFrame(const JoinDelta& delta) {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("join_delta");
  w.Key("entered");
  w.BeginArray();
  for (const JoinPair& p : delta.entered) {
    w.BeginArray();
    w.Int(static_cast<std::int64_t>(p.li));
    w.Int(static_cast<std::int64_t>(p.ri));
    w.EndArray();
  }
  w.EndArray();
  w.Key("left");
  w.BeginArray();
  for (const JoinPair& p : delta.left) {
    w.BeginArray();
    w.Int(static_cast<std::int64_t>(p.li));
    w.Int(static_cast<std::int64_t>(p.ri));
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

void WriteServeStats(JsonWriter* w, const ServeStats& stats) {
  w->Key("accepted");
  w->Int(stats.accepted);
  w->Key("rejected_busy");
  w->Int(stats.rejected_busy);
  w->Key("evicted_slow");
  w->Int(stats.evicted_slow);
  w->Key("evicted_idle");
  w->Int(stats.evicted_idle);
  w->Key("evicted_pending_overflow");
  w->Int(stats.evicted_pending_overflow);
  w->Key("closed_by_peer");
  w->Int(stats.closed_by_peer);
  w->Key("io_errors");
  w->Int(stats.io_errors);
  w->Key("lines_in");
  w->Int(stats.lines_in);
  w->Key("points_ingested");
  w->Int(stats.points_ingested);
  w->Key("parse_errors");
  w->Int(stats.parse_errors);
  w->Key("oversized_lines");
  w->Int(stats.oversized_lines);
  w->Key("engine_errors");
  w->Int(stats.engine_errors);
  w->Key("frames_pushed");
  w->Int(stats.frames_pushed);
  w->Key("frames_dropped");
  w->Int(stats.frames_dropped);
  w->Key("bytes_in");
  w->Int(stats.bytes_in);
  w->Key("bytes_out");
  w->Int(stats.bytes_out);
}

void WriteFleetStats(JsonWriter* w, const FleetStats& stats) {
  w->Key("fleet");
  w->BeginObject();
  w->Key("streams");
  w->Int(stats.streams);
  w->Key("points_ingested");
  w->Int(stats.points_ingested);
  w->Key("searches");
  w->Int(stats.searches);
  w->Key("seeded_searches");
  w->Int(stats.seeded_searches);
  w->Key("ground_distances_computed");
  w->Int(stats.ground_distances_computed);
  w->Key("dfd_cells_computed");
  w->Int(stats.dfd_cells_computed);
  w->Key("coalesced_slides");
  w->Int(stats.coalesced_slides);
  w->Key("reordered");
  w->Int(stats.reordered);
  w->Key("late_dropped");
  w->Int(stats.late_dropped);
  w->Key("reorder_buffered");
  w->Int(stats.reorder_buffered);
  w->Key("reorder_buffered_peak");
  w->Int(stats.reorder_buffered_peak);
  w->EndObject();
}

void WriteDurable(JsonWriter* w, const std::string& state_dir,
                  const DurableFleet& fleet) {
  w->Key("durable");
  w->BeginObject();
  w->Key("state_dir");
  w->String(state_dir);
  w->Key("generation");
  w->Int(static_cast<std::int64_t>(fleet.generation()));
  w->Key("restored_snapshot");
  w->Bool(fleet.recovery().restored_snapshot);
  w->Key("replayed_records");
  w->Int(static_cast<std::int64_t>(fleet.recovery().replayed_records));
  w->EndObject();
}

StatusOr<MotifServer> MotifServer::Create(const ServeOptions& options,
                                          const GroundMetric& metric) {
  const ServeLimits& lim = options.limits;
  if (lim.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (lim.max_line_bytes < 16) {
    return Status::InvalidArgument("max_line_bytes must be >= 16");
  }
  if (lim.subscriber_queue_high_water_bytes < lim.subscriber_queue_bytes) {
    return Status::InvalidArgument(
        "subscriber_queue_high_water_bytes must be >= "
        "subscriber_queue_bytes");
  }
  if (lim.max_read_bytes_per_call == 0) {
    return Status::InvalidArgument("max_read_bytes_per_call must be >= 1");
  }
  if (lim.drain_grace_ms < 0) {
    return Status::InvalidArgument("drain_grace_ms must be >= 0");
  }
  if (lim.max_streams < 1) {
    return Status::InvalidArgument("max_streams must be >= 1");
  }

  MotifServer server(options, metric);
  StatusOr<std::unique_ptr<MotifFleetEngine>> engine =
      OpenFleetEngine(options.fleet, metric, options.durable);
  if (!engine.ok()) return engine.status();
  server.engine_ = std::move(engine).value();
  return server;
}

MotifServer::Conn* MotifServer::Find(ConnId id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

std::vector<MotifServer::ConnId> MotifServer::ConnectionIds() const {
  std::vector<ConnId> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  return ids;
}

bool MotifServer::WantsRead(ConnId id) const {
  auto it = conns_.find(id);
  return it != conns_.end() && !it->second.closing;
}

bool MotifServer::WantsWrite(ConnId id) const {
  auto it = conns_.find(id);
  return it != conns_.end() && !it->second.out.empty();
}

ServeSocket* MotifServer::socket(ConnId id) {
  Conn* c = Find(id);
  return c == nullptr ? nullptr : c->socket.get();
}

std::int64_t MotifServer::ConnDroppedFrames(ConnId id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second.dropped;
}

MotifServer::ConnId MotifServer::OnAccept(std::unique_ptr<ServeSocket> socket,
                                          std::int64_t now_ms) {
  if (socket == nullptr) return 0;
  if (draining_ || AtCapacity()) {
    // Shed with one best-effort frame so the client learns why; a peer
    // that cannot take the write just sees the close.
    const std::string frame = draining_
                                  ? ByeFrame("draining")
                                  : ErrorFrame("busy", 0, "server at capacity");
    (void)socket->Write(frame.data(), frame.size());
    socket->Close();
    if (!draining_) ++stats_.rejected_busy;
    return 0;
  }
  const ConnId id = next_id_++;
  Conn& c = conns_[id];
  c.socket = std::move(socket);
  c.last_read_ms = now_ms;
  ++stats_.accepted;
  Enqueue(id, c, HelloFrame(), /*droppable=*/false, now_ms);
  if (Connected(id)) FlushOut(id, c);
  return id;
}

void MotifServer::OnReadable(ConnId id, std::int64_t now_ms) {
  Conn* c = Find(id);
  if (c == nullptr || c->closing) return;
  const ServeLimits& lim = options_.limits;

  std::size_t total = 0;
  bool eof = false;
  while (total < lim.max_read_bytes_per_call) {
    char buf[8192];
    const std::size_t want =
        std::min(sizeof(buf), lim.max_read_bytes_per_call - total);
    const IoResult r = c->socket->Read(buf, want);
    if (r.status == IoStatus::kOk) {
      if (r.bytes == 0) break;
      c->in.append(buf, r.bytes);
      total += r.bytes;
      stats_.bytes_in += static_cast<std::int64_t>(r.bytes);
      c->last_read_ms = now_ms;
    } else if (r.status == IoStatus::kWouldBlock) {
      break;
    } else if (r.status == IoStatus::kEof) {
      eof = true;
      break;
    } else {
      ++stats_.io_errors;
      CloseNow(id);
      return;
    }
  }

  if (c->in.size() > lim.max_ingest_pending_bytes && !c->discarding) {
    ++stats_.evicted_pending_overflow;
    c->in.clear();
    QueueError(id, *c, "overflow", "pending ingest bytes over limit",
               now_ms);
    if (Connected(id)) BeginClose(*c, "overflow", now_ms);
    if (Connected(id)) FlushOut(id, *c);
    return;
  }

  ProcessBuffer(id, *c, now_ms);
  c = Find(id);
  if (c == nullptr) return;

  if (eof) {
    // End of session: the peer half-closed. Unterminated trailing bytes
    // are an incomplete frame and are discarded; queued output (the
    // peer may still be reading) is flushed, then the socket closes.
    ++stats_.closed_by_peer;
    c->in.clear();
    if (!c->closing) {
      c->closing = true;
      c->close_deadline_ms = now_ms + options_.limits.drain_grace_ms;
    }
    if (c->out.empty()) {
      CloseNow(id);
      return;
    }
  }
  FlushOut(id, *c);
}

void MotifServer::OnWritable(ConnId id, std::int64_t now_ms) {
  (void)now_ms;
  Conn* c = Find(id);
  if (c == nullptr) return;
  FlushOut(id, *c);
}

void MotifServer::Tick(std::int64_t now_ms) {
  const ServeLimits& lim = options_.limits;
  for (ConnId id : ConnectionIds()) {
    Conn* c = Find(id);
    if (c == nullptr) continue;
    if (c->closing) {
      if (now_ms >= c->close_deadline_ms) CloseNow(id);
      continue;
    }
    if (lim.idle_timeout_ms > 0 &&
        now_ms - c->last_read_ms >= lim.idle_timeout_ms) {
      ++stats_.evicted_idle;
      BeginClose(*c, "idle", now_ms);
      FlushOut(id, *c);
    }
  }
}

void MotifServer::BeginDrain(std::int64_t now_ms) {
  if (draining_) return;
  draining_ = true;
  for (ConnId id : ConnectionIds()) {
    Conn* c = Find(id);
    if (c == nullptr || c->closing) continue;
    BeginClose(*c, "draining", now_ms);
    FlushOut(id, *c);
  }
}

Status MotifServer::Shutdown() {
  if (!options_.durable_enabled()) return Status::Ok();
  DurableFleet& durable = static_cast<DurableFleet&>(*engine_);
  FM_RETURN_IF_ERROR(durable.Checkpoint());
  return durable.Sync();
}

void MotifServer::ProcessBuffer(ConnId id, Conn& c, std::int64_t now_ms) {
  const ServeLimits& lim = options_.limits;
  std::vector<FleetArrival> batch;
  std::size_t pos = 0;
  while (true) {
    if (c.discarding) {
      const std::size_t nl = c.in.find('\n', pos);
      if (nl == std::string::npos) {
        pos = c.in.size();
        break;
      }
      pos = nl + 1;
      c.discarding = false;
      continue;
    }
    const std::size_t nl = c.in.find('\n', pos);
    if (nl == std::string::npos) {
      if (c.in.size() - pos > lim.max_line_bytes) {
        ++stats_.oversized_lines;
        ++c.lines;
        QueueError(id, c, "oversized",
                   "line exceeds " + std::to_string(lim.max_line_bytes) +
                       " bytes",
                   now_ms);
        c.discarding = true;
        pos = c.in.size();
      }
      break;
    }
    std::string line = c.in.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.size() > lim.max_line_bytes) {
      ++stats_.oversized_lines;
      ++c.lines;
      QueueError(id, c, "oversized",
                 "line exceeds " + std::to_string(lim.max_line_bytes) +
                     " bytes",
                 now_ms);
      continue;
    }
    HandleLine(id, c, line, &batch, now_ms);
    if (c.closing) break;  // QUIT / eviction: ignore the rest
  }
  c.in.erase(0, pos);
  FlushIngest(id, c, &batch, now_ms);
}

void MotifServer::HandleLine(ConnId id, Conn& c, const std::string& raw,
                             std::vector<FleetArrival>* batch,
                             std::int64_t now_ms) {
  std::string line = raw;
  StripTrailingCr(&line);
  std::size_t at = line.find_first_not_of(" \t");
  if (at == std::string::npos) return;  // blank keepalive line
  ++c.lines;
  ++stats_.lines_in;

  const char first = line[at];
  const bool is_command = (first >= 'A' && first <= 'Z') ||
                          (first >= 'a' && first <= 'z');
  if (is_command) {
    // Commands observe every ingest row that preceded them on the wire.
    FlushIngest(id, c, batch, now_ms);
    HandleCommand(id, c, line.substr(at), now_ms);
    return;
  }

  FleetArrival arrival;
  switch (ParseFleetCsvRow(line, &arrival.stream, &arrival.point.x,
                           &arrival.point.y, &arrival.timestamp,
                           &arrival.has_timestamp)) {
    case CsvRow::kBlank:
      return;
    case CsvRow::kMalformed:
      ++stats_.parse_errors;
      QueueError(id, c, "parse", "unparsable row", now_ms);
      return;
    case CsvRow::kMalformedTimestamp:
      ++stats_.parse_errors;
      QueueError(id, c, "parse", "unparsable timestamp", now_ms);
      return;
    case CsvRow::kPoint:
      break;
  }
  // The engine's own arrival check, row by row, so one bad row gets its
  // own error frame instead of failing the rows batched with it.
  const Status valid = ValidateArrival(
      *metric_, arrival.point,
      arrival.has_timestamp ? &arrival.timestamp : nullptr);
  if (!valid.ok()) {
    ++stats_.parse_errors;
    QueueError(id, c, "parse", valid.message(), now_ms);
    return;
  }
  if (arrival.stream >= options_.limits.max_streams) {
    ++stats_.parse_errors;
    QueueError(id, c, "range",
               "stream id >= max_streams (" +
                   std::to_string(options_.limits.max_streams) + ")",
               now_ms);
    return;
  }
  batch->push_back(arrival);
}

void MotifServer::HandleCommand(ConnId id, Conn& c, const std::string& line,
                                std::int64_t now_ms) {
  const std::size_t space = line.find_first_of(" \t");
  const std::string verb = AsciiUpper(line.substr(0, space));
  std::string arg;
  if (space != std::string::npos) {
    const std::size_t arg_at = line.find_first_not_of(" \t", space);
    if (arg_at != std::string::npos) {
      std::size_t arg_end = line.find_last_not_of(" \t");
      arg = line.substr(arg_at, arg_end - arg_at + 1);
    }
  }

  if (verb == "PING") {
    Enqueue(id, c, SimpleFrame("pong"), /*droppable=*/false, now_ms);
  } else if (verb == "SUB") {
    const std::string mode = arg.empty() ? "ALL" : AsciiUpper(arg);
    if (mode == "REPORTS") {
      c.sub = SubMode::kReports;
    } else if (mode == "JOIN") {
      c.sub = SubMode::kJoin;
    } else if (mode == "ALL") {
      c.sub = SubMode::kAll;
    } else {
      ++stats_.parse_errors;
      QueueError(id, c, "parse", "SUB expects reports|join|all", now_ms);
      return;
    }
    const char* label = c.sub == SubMode::kReports  ? "reports"
                        : c.sub == SubMode::kJoin   ? "join"
                                                    : "all";
    Enqueue(id, c, SubscribedFrame(label), /*droppable=*/false, now_ms);
  } else if (verb == "UNSUB") {
    c.sub = SubMode::kNone;
    Enqueue(id, c, SimpleFrame("unsubscribed"), /*droppable=*/false, now_ms);
  } else if (verb == "STATS") {
    Enqueue(id, c, StatsFrame(), /*droppable=*/false, now_ms);
  } else if (verb == "QUIT") {
    BeginClose(c, "quit", now_ms);
  } else {
    ++stats_.parse_errors;
    QueueError(id, c, "parse", "unknown command: " + verb, now_ms);
  }
}

Status MotifServer::EnsureStreams(std::size_t stream) {
  while (engine().stream_count() <= stream) {
    StatusOr<std::size_t> added = engine_->AddStream();
    if (!added.ok()) return added.status();
  }
  return Status::Ok();
}

void MotifServer::FlushIngest(ConnId id, Conn& c,
                              std::vector<FleetArrival>* batch,
                              std::int64_t now_ms) {
  if (batch->empty()) return;
  std::size_t max_stream = 0;
  for (const FleetArrival& a : *batch) {
    max_stream = std::max(max_stream, a.stream);
  }
  Status streams = EnsureStreams(max_stream);
  if (!streams.ok()) {
    ++stats_.engine_errors;
    QueueError(id, c, "engine", streams.message(), now_ms);
    batch->clear();
    return;
  }
  StatusOr<FleetReport> report = engine_->Ingest(*batch);
  if (!report.ok()) {
    // The batch is not acknowledged: the engine rejected it (e.g.
    // mixing bare and timestamped arrivals mid-reorder). The server
    // survives; the offending connection learns why.
    ++stats_.engine_errors;
    QueueError(id, c, "engine", report.status().message(), now_ms);
    batch->clear();
    return;
  }
  stats_.points_ingested += static_cast<std::int64_t>(batch->size());
  batch->clear();
  Broadcast(report.value(), now_ms);
}

void MotifServer::Broadcast(const FleetReport& report,
                            std::int64_t now_ms) {
  if (report.empty()) return;
  std::vector<std::string> report_frames;
  report_frames.reserve(report.updates.size());
  for (const FleetStreamUpdate& u : report.updates) {
    report_frames.push_back(SerializeReportFrame(u));
  }
  const std::string join_frame =
      report.join_delta.empty() ? std::string() : SerializeJoinFrame(
                                                      report.join_delta);

  for (ConnId id : ConnectionIds()) {
    Conn* c = Find(id);
    if (c == nullptr || c->closing || c->sub == SubMode::kNone) continue;
    if (c->sub == SubMode::kReports || c->sub == SubMode::kAll) {
      for (const std::string& frame : report_frames) {
        ++stats_.frames_pushed;
        Enqueue(id, *c, frame, /*droppable=*/true, now_ms);
        c = Find(id);
        if (c == nullptr || c->closing) break;
      }
    }
    if (c == nullptr || c->closing) continue;
    if (!join_frame.empty() &&
        (c->sub == SubMode::kJoin || c->sub == SubMode::kAll)) {
      ++stats_.frames_pushed;
      Enqueue(id, *c, join_frame, /*droppable=*/true, now_ms);
    }
  }
  // Opportunistic flush: most subscribers take the frames immediately,
  // so the common case needs no extra poll round-trip.
  for (ConnId id : ConnectionIds()) {
    Conn* c = Find(id);
    if (c != nullptr && !c->out.empty()) FlushOut(id, *c);
  }
}

void MotifServer::Enqueue(ConnId id, Conn& c, std::string frame,
                          bool droppable, std::int64_t now_ms) {
  (void)id;
  if (c.closing) return;
  const ServeLimits& lim = options_.limits;

  // A subscriber that lost frames learns before its next broadcast.
  if (droppable && c.dropped > c.dropped_notified) {
    const std::int64_t total = c.dropped;
    std::string notice = DroppedFrame(total);
    c.out.push_back(Frame{std::move(notice), /*droppable=*/false});
    c.out_bytes += c.out.back().bytes.size();
    c.dropped_notified = total;
  }

  const std::size_t need = frame.size();
  if (c.out_bytes + need > lim.subscriber_queue_bytes) {
    // Drop-oldest: only droppable frames, never one mid-write.
    for (auto it = c.out.begin();
         it != c.out.end() && c.out_bytes + need > lim.subscriber_queue_bytes;) {
      const bool mid_write = (it == c.out.begin() && c.out_offset > 0);
      if (it->droppable && !mid_write) {
        c.out_bytes -= it->bytes.size();
        ++c.dropped;
        ++stats_.frames_dropped;
        it = c.out.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (c.out_bytes + need > lim.subscriber_queue_high_water_bytes) {
    // Past the high-water mark with nothing left to shed: the
    // subscriber is not draining. Evict it.
    ++stats_.evicted_slow;
    ++c.dropped;
    ++stats_.frames_dropped;
    BeginClose(c, "slow", now_ms);
    return;
  }
  c.out.push_back(Frame{std::move(frame), droppable});
  c.out_bytes += need;
}

void MotifServer::FlushOut(ConnId id, Conn& c) {
  while (!c.out.empty()) {
    const Frame& front = c.out.front();
    const char* data = front.bytes.data() + c.out_offset;
    const std::size_t len = front.bytes.size() - c.out_offset;
    const IoResult r = c.socket->Write(data, len);
    if (r.status == IoStatus::kOk) {
      stats_.bytes_out += static_cast<std::int64_t>(r.bytes);
      c.out_offset += r.bytes;
      if (c.out_offset == front.bytes.size()) {
        c.out_bytes -= front.bytes.size();
        c.out.pop_front();
        c.out_offset = 0;
      } else if (r.bytes == 0) {
        break;  // defensive: a zero-byte kOk write must not spin
      }
    } else if (r.status == IoStatus::kWouldBlock) {
      break;
    } else {
      ++stats_.io_errors;
      CloseNow(id);
      return;
    }
  }
  if (c.out.empty() && c.closing) CloseNow(id);
}

void MotifServer::QueueError(ConnId id, Conn& c, const std::string& code,
                             const std::string& message,
                             std::int64_t now_ms) {
  Enqueue(id, c, ErrorFrame(code, c.lines, message), /*droppable=*/false,
          now_ms);
}

void MotifServer::BeginClose(Conn& c, const std::string& reason,
                             std::int64_t now_ms) {
  if (c.closing) return;
  // The bye bypasses Enqueue's caps: it is the one frame a connection
  // being closed must still carry, and it is a few dozen bytes.
  std::string bye = ByeFrame(reason);
  c.out_bytes += bye.size();
  c.out.push_back(Frame{std::move(bye), /*droppable=*/false});
  c.closing = true;
  c.close_deadline_ms = now_ms + options_.limits.drain_grace_ms;
}

void MotifServer::CloseNow(ConnId id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second.socket != nullptr) it->second.socket->Close();
  conns_.erase(it);
}

std::string MotifServer::HelloFrame() const {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("hello");
  w.Key("proto");
  w.Int(1);
  w.Key("max_line_bytes");
  w.Int(static_cast<std::int64_t>(options_.limits.max_line_bytes));
  w.Key("streams");
  w.Int(static_cast<std::int64_t>(engine().stream_count()));
  w.Key("durable");
  w.Bool(options_.durable_enabled());
  w.EndObject();
  return w.str() + "\n";
}

std::string MotifServer::StatsFrame() const {
  JsonWriter w(JsonStyle::kCompact);
  w.BeginObject();
  w.Key("type");
  w.String("stats");
  w.Key("connections");
  w.Int(static_cast<std::int64_t>(conns_.size()));
  w.Key("draining");
  w.Bool(draining_);
  WriteServeStats(&w, stats_);
  WriteFleetStats(&w, fleet_stats());
  w.Key("streams");
  w.BeginArray();
  const std::size_t count = engine().stream_count();
  const std::size_t listed = std::min(count, kStatsFrameStreamCap);
  for (std::size_t s = 0; s < listed; ++s) {
    const IngestStats& ingest = engine().ingest_stats(s);
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<std::int64_t>(s));
    w.Key("released");
    w.Int(ingest.released);
    w.Key("reordered");
    w.Int(ingest.reordered);
    w.Key("late_dropped");
    w.Int(ingest.late_dropped);
    w.Key("buffered");
    w.Int(static_cast<std::int64_t>(engine().stream_buffered(s)));
    w.Key("buffered_peak");
    w.Int(ingest.buffered_peak);
    w.EndObject();
  }
  w.EndArray();
  if (listed < count) {
    w.Key("streams_truncated");
    w.Bool(true);
  }
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace frechet_motif
