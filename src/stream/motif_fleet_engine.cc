#include "stream/motif_fleet_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace frechet_motif {

MotifFleetEngine::MotifFleetEngine(const FleetOptions& options,
                                   const GroundMetric& metric)
    : options_(options), metric_(&metric) {}

StatusOr<MotifFleetEngine> MotifFleetEngine::Create(
    const FleetOptions& options, const GroundMetric& metric) {
  // Validate the shared per-stream configuration once, with a throwaway
  // WindowState — AddStream reuses the same path.
  FM_RETURN_IF_ERROR(
      WindowState::Create(options.stream, metric, /*cross=*/false).status());
  if (options.reorder_capacity < 0) {
    return Status::InvalidArgument(
        "FleetOptions::reorder_capacity must be >= 0");
  }
  if (options.max_searches_per_drain < 0) {
    return Status::InvalidArgument(
        "FleetOptions::max_searches_per_drain must be >= 0");
  }
  // Negative disables the join; anything else, NaN included, must pass
  // the join's threshold rule (NaN would otherwise read as disabled and
  // never match its own snapshot echo on restore).
  MotifFleetEngine engine(options, metric);
  if (!(options.join_epsilon < 0.0)) {
    StatusOr<IncrementalDfdJoin> join =
        IncrementalDfdJoin::Create(options.JoinConfig(), metric);
    if (!join.ok()) return join.status();
    engine.join_.emplace(std::move(join).value());
  }
  return engine;
}

StatusOr<std::size_t> MotifFleetEngine::AddMember(
    const StreamOptions& stream_options, bool cross) {
  StatusOr<WindowState> state =
      WindowState::Create(stream_options, *metric_, cross);
  if (!state.ok()) return state.status();
  const std::size_t member = windows_.size();
  const std::size_t primary = stream_map_.size();
  windows_.push_back(std::move(state).value());
  member_primary_.push_back(primary);
  stream_map_.push_back(StreamRef{member, 0});
  frontends_.emplace_back(options_.reorder_capacity);
  if (cross) {
    stream_map_.push_back(StreamRef{member, 1});
    frontends_.emplace_back(options_.reorder_capacity);
  }
  scheduler_.Register();
  EngineCall call;
  call.kind =
      cross ? EngineCall::Kind::kAddCrossPair : EngineCall::Kind::kAddStream;
  call.member_options = &stream_options;
  FM_RETURN_IF_ERROR(OnEngineCall(call));
  return member;
}

StatusOr<std::size_t> MotifFleetEngine::AddStream() {
  return AddStream(options_.stream);
}

StatusOr<std::size_t> MotifFleetEngine::AddStream(
    const StreamOptions& stream_options) {
  StatusOr<std::size_t> member = AddMember(stream_options, /*cross=*/false);
  if (!member.ok()) return member.status();
  return member_primary_[member.value()];
}

StatusOr<std::pair<std::size_t, std::size_t>> MotifFleetEngine::AddCrossPair() {
  return AddCrossPair(options_.stream);
}

StatusOr<std::pair<std::size_t, std::size_t>> MotifFleetEngine::AddCrossPair(
    const StreamOptions& stream_options) {
  StatusOr<std::size_t> member = AddMember(stream_options, /*cross=*/true);
  if (!member.ok()) return member.status();
  const std::size_t primary = member_primary_[member.value()];
  return std::make_pair(primary, primary + 1);
}

Status MotifFleetEngine::CheckStream(std::size_t stream) const {
  if (stream >= stream_map_.size()) {
    return Status::InvalidArgument("unknown fleet stream id " +
                                   std::to_string(stream));
  }
  return Status::Ok();
}

Status MotifFleetEngine::Deliver(std::size_t stream, const Point& p,
                                 const double* timestamp,
                                 FleetReport* report) {
  const StreamRef ref = stream_map_[stream];
  // Parity guard (unbudgeted mode only): a due window must be searched
  // before it slides any further, so its search sees exactly the window
  // a one-member fleet's would have.
  if (options_.max_searches_per_drain == 0 && scheduler_.IsDue(ref.member)) {
    FM_RETURN_IF_ERROR(RunSearches({ref.member}, report));
  }
  FM_RETURN_IF_ERROR(windows_[ref.member].Append(ref.side, p, timestamp));
  scheduler_.NoteAppend(ref.member);
  if (windows_[ref.member].SearchDue()) scheduler_.MarkDue(ref.member);
  return Status::Ok();
}

ThreadPool* MotifFleetEngine::SearchPool() {
  const int threads = ResolveThreadCount(options_.stream.threads);
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads);
  return pool_.get();
}

Status MotifFleetEngine::RunSearches(const std::vector<std::size_t>& members,
                                     FleetReport* report) {
  ThreadPool* pool = SearchPool();
  const std::size_t count = members.size();
  // A deferred search covers every slide that accumulated while it
  // waited; the merged ones are counted below. RunSearch resets
  // appended_since_search(), so capture it before any search runs.
  std::vector<Index> pending(count, 0);
  for (std::size_t k = 0; k < count; ++k) {
    const WindowState& window = windows_[members[k]];
    if (window.searched_once()) {
      pending[k] = window.appended_since_search() / window.options().slide_step;
    }
  }
  // Compute phase. Several windows with a pool: lane k searches its
  // static chunk of `members`, one whole window at a time, each serially
  // inside its lane (the pool is occupied by the fan-out itself and is
  // not re-entrant) and touching only its own window's state, so lanes
  // share nothing. Otherwise the windows run one after another, each
  // spending the pool (if any) on intra-search parallelism.
  //
  // Synchronization of the fan-out is the RunOnAllLanes barrier, not a
  // lock: lanes write disjoint `updates` slots, and the merge below
  // starts only after every lane has returned (ThreadPool joins on its
  // GUARDED_BY state, see util/thread_pool.h). Clang's thread-safety
  // analysis has no barrier concept, so this invariant stays enforced
  // dynamically by the TSan leg over tests/fleet_drain_test.cc.
  std::vector<std::optional<StatusOr<StreamUpdate>>> updates(count);
  if (count > 1 && pool != nullptr) {
    pool->RunOnAllLanes([&](int lane) {
      std::int64_t begin = 0;
      std::int64_t end = 0;
      ThreadPool::ChunkRange(static_cast<std::int64_t>(count),
                             pool->threads(), lane, &begin, &end);
      for (std::int64_t k = begin; k < end; ++k) {
        updates[static_cast<std::size_t>(k)].emplace(
            windows_[members[static_cast<std::size_t>(k)]].RunSearch(
                nullptr));
      }
    });
  } else {
    for (std::size_t k = 0; k < count; ++k) {
      updates[k].emplace(windows_[members[k]].RunSearch(pool));
    }
  }
  // Merge phase: every side effect, in drain order. Each search is
  // deterministic, so the report stream does not depend on how the
  // compute phase ran, and an error surfaces at the same position.
  for (std::size_t k = 0; k < count; ++k) {
    StatusOr<StreamUpdate>& update = *updates[k];
    if (!update.ok()) return update.status();
    const std::size_t member = members[k];
    if (pending[k] > 1) coalesced_slides_ += pending[k] - 1;
    scheduler_.NoteSearched(member);
    if (join_.has_value()) {
      FM_RETURN_IF_ERROR(
          join_->Update(member, windows_[member].WindowTrajectory(0)));
    }
    report->updates.push_back(
        FleetStreamUpdate{member_primary_[member], std::move(update).value()});
  }
  return Status::Ok();
}

Status MotifFleetEngine::DrainInternal(FleetReport* report) {
  if (scheduler_.due_count() > 0) {
    std::vector<std::size_t> order = scheduler_.DrainOrder();
    if (options_.max_searches_per_drain > 0) {
      order.resize(std::min<std::size_t>(
          order.size(),
          static_cast<std::size_t>(options_.max_searches_per_drain)));
    }
    FM_RETURN_IF_ERROR(RunSearches(order, report));
  }
  // One join tick per call: every searched stream — parity-guard
  // searches included — refreshed its snapshot, so the delta covers the
  // whole report.
  if (join_.has_value() && !report->updates.empty()) {
    StatusOr<JoinDelta> delta = join_->Tick();
    if (!delta.ok()) return delta.status();
    report->join_delta = std::move(delta).value();
  }
  return Status::Ok();
}

StatusOr<FleetReport> MotifFleetEngine::FinishCall(EngineCall call,
                                                   bool changed,
                                                   const Status& status,
                                                   FleetReport report) {
  call.failed = !status.ok();
  if (changed || call.failed) FM_RETURN_IF_ERROR(OnEngineCall(call));
  if (!status.ok()) return status;
  return report;
}

StatusOr<FleetReport> MotifFleetEngine::Ingest(
    const std::vector<FleetArrival>& batch) {
  // Check the whole batch first: a rejected batch changes nothing.
  for (const FleetArrival& arrival : batch) {
    FM_RETURN_IF_ERROR(CheckStream(arrival.stream));
    FM_RETURN_IF_ERROR(ValidateArrival(
        *metric_, arrival.point,
        arrival.has_timestamp ? &arrival.timestamp : nullptr));
  }
  FleetReport report;
  // One sink for the whole batch (a std::function per point would heap-
  // allocate on the hot arrival loop); the captured stream id is advanced
  // per arrival.
  std::size_t stream = 0;
  const IngestFrontend::Sink sink = [&](const Point& p,
                                        const double* ts) -> Status {
    return Deliver(stream, p, ts, &report);
  };
  Status status;
  for (std::size_t k = 0; k < batch.size() && status.ok(); ++k) {
    const FleetArrival& arrival = batch[k];
    stream = arrival.stream;
    status = frontends_[stream].Offer(
        arrival.point, arrival.has_timestamp ? &arrival.timestamp : nullptr,
        sink);
  }
  if (status.ok()) status = DrainInternal(&report);
  EngineCall call;
  call.kind = EngineCall::Kind::kIngest;
  call.batch = &batch;
  return FinishCall(call, !batch.empty() || !report.empty(), status,
                    std::move(report));
}

StatusOr<FleetReport> MotifFleetEngine::Push(std::size_t stream,
                                             const Point& p) {
  return Ingest({FleetArrival{stream, p, false, 0.0}});
}

StatusOr<FleetReport> MotifFleetEngine::Push(std::size_t stream,
                                             const Point& p,
                                             double timestamp) {
  return Ingest({FleetArrival{stream, p, true, timestamp}});
}

StatusOr<FleetReport> MotifFleetEngine::Drain() {
  FleetReport report;
  const Status status = DrainInternal(&report);
  EngineCall call;
  call.kind = EngineCall::Kind::kDrain;
  return FinishCall(call, !report.empty(), status, std::move(report));
}

StatusOr<FleetReport> MotifFleetEngine::Flush() {
  FleetReport report;
  std::size_t stream = 0;
  bool released = false;
  const IngestFrontend::Sink sink = [&](const Point& p,
                                        const double* ts) -> Status {
    released = true;
    return Deliver(stream, p, ts, &report);
  };
  Status status;
  for (; stream < frontends_.size() && status.ok(); ++stream) {
    status = frontends_[stream].Flush(sink);
  }
  if (status.ok()) status = DrainInternal(&report);
  EngineCall call;
  call.kind = EngineCall::Kind::kFlush;
  return FinishCall(call, released || !report.empty(), status,
                    std::move(report));
}

namespace {

/// Fleet-manifest version; bump on layout change. The durable layer
/// wraps this blob in its own versioned, checksummed container — this
/// inner tag is a cheap defense against a manifest reaching Restore
/// through some other path. v2: heterogeneous members (per-member
/// StreamOptions echo, cross pairs, per-stream-id frontends) and the
/// approximation-ε options field. v3: window records hold their points
/// instead of ring cells, and each member's options are echoed once.
/// Older versions are rejected, not read.
constexpr std::uint32_t kFleetManifestVersion = 3;

}  // namespace

Status MotifFleetEngine::Snapshot(std::string* out) const {
  BinaryWriter writer;
  writer.PutU32(kFleetManifestVersion);
  // Options echo: everything that shapes state evolution. Thread count
  // is excluded (bit-identical results either way); the search budget
  // is included — it changes which searches defer, i.e. the state.
  writer.PutI32(options_.stream.window_length);
  writer.PutI32(options_.stream.slide_step);
  writer.PutI32(options_.stream.min_length_xi);
  writer.PutDouble(options_.stream.approximation_epsilon);
  writer.PutDouble(options_.join_epsilon);
  writer.PutI32(options_.reorder_capacity);
  writer.PutI32(options_.max_searches_per_drain);

  // Members: each with its own options echo (so Restore can rebuild a
  // heterogeneous fleet) followed by its window state. The stream-id
  // map is derived, not stored — ids were allocated in member order,
  // one per single member, two per cross member.
  writer.PutU64(windows_.size());
  for (const WindowState& window : windows_) {
    writer.PutBool(window.cross());
    writer.PutI32(window.options().window_length);
    writer.PutI32(window.options().slide_step);
    writer.PutI32(window.options().min_length_xi);
    writer.PutDouble(window.options().approximation_epsilon);
    window.SaveTo(&writer);
  }
  writer.PutU64(frontends_.size());
  for (const IngestFrontend& frontend : frontends_) {
    frontend.SaveTo(&writer);
  }
  scheduler_.SaveTo(&writer);
  writer.PutI64(coalesced_slides_);
  writer.PutBool(join_.has_value());
  if (join_.has_value()) join_->SaveTo(&writer);
  *out = writer.Take();
  return Status::Ok();
}

StatusOr<MotifFleetEngine> MotifFleetEngine::Restore(
    const FleetOptions& options, const GroundMetric& metric,
    std::string_view snapshot) {
  BinaryReader reader(snapshot);
  std::uint32_t version = 0;
  FM_RETURN_IF_ERROR(reader.GetU32(&version));
  if (version != kFleetManifestVersion) {
    return Status::DataLoss("unsupported fleet manifest version " +
                            std::to_string(version));
  }
  Index window_length = 0;
  Index slide_step = 0;
  Index xi = 0;
  double approx_eps = 0.0;
  double join_epsilon = 0.0;
  Index reorder_capacity = 0;
  std::int32_t max_searches = 0;
  FM_RETURN_IF_ERROR(reader.GetI32(&window_length));
  FM_RETURN_IF_ERROR(reader.GetI32(&slide_step));
  FM_RETURN_IF_ERROR(reader.GetI32(&xi));
  FM_RETURN_IF_ERROR(reader.GetDouble(&approx_eps));
  FM_RETURN_IF_ERROR(reader.GetDouble(&join_epsilon));
  FM_RETURN_IF_ERROR(reader.GetI32(&reorder_capacity));
  FM_RETURN_IF_ERROR(reader.GetI32(&max_searches));
  const bool join_enabled_saved = join_epsilon >= 0.0;
  const bool join_enabled_now = options.join_epsilon >= 0.0;
  if (window_length != options.stream.window_length ||
      slide_step != options.stream.slide_step ||
      xi != options.stream.min_length_xi ||
      approx_eps != options.stream.approximation_epsilon ||
      join_epsilon != options.join_epsilon ||
      join_enabled_saved != join_enabled_now ||
      reorder_capacity != options.reorder_capacity ||
      max_searches != options.max_searches_per_drain) {
    return Status::FailedPrecondition(
        "fleet snapshot was taken under a different configuration");
  }

  StatusOr<MotifFleetEngine> created = Create(options, metric);
  if (!created.ok()) return created.status();
  MotifFleetEngine engine = std::move(created).value();

  std::uint64_t members = 0;
  FM_RETURN_IF_ERROR(reader.GetU64(&members));
  for (std::uint64_t m = 0; m < members; ++m) {
    bool cross = false;
    StreamOptions member_options = options.stream;  // threads: runtime choice
    FM_RETURN_IF_ERROR(reader.GetBool(&cross));
    FM_RETURN_IF_ERROR(reader.GetI32(&member_options.window_length));
    FM_RETURN_IF_ERROR(reader.GetI32(&member_options.slide_step));
    FM_RETURN_IF_ERROR(reader.GetI32(&member_options.min_length_xi));
    FM_RETURN_IF_ERROR(
        reader.GetDouble(&member_options.approximation_epsilon));
    StatusOr<WindowState> window =
        WindowState::RestoreFrom(&reader, member_options, cross, metric);
    if (!window.ok()) return window.status();
    const std::size_t member = engine.windows_.size();
    engine.member_primary_.push_back(engine.stream_map_.size());
    engine.stream_map_.push_back(StreamRef{member, 0});
    if (cross) engine.stream_map_.push_back(StreamRef{member, 1});
    engine.windows_.push_back(std::move(window).value());
  }
  std::uint64_t frontend_count = 0;
  FM_RETURN_IF_ERROR(reader.GetU64(&frontend_count));
  if (frontend_count != engine.stream_map_.size()) {
    return Status::DataLoss(
        "fleet manifest frontends do not cover its stream ids");
  }
  for (std::uint64_t id = 0; id < frontend_count; ++id) {
    engine.frontends_.emplace_back(options.reorder_capacity);
    FM_RETURN_IF_ERROR(engine.frontends_.back().LoadFrom(&reader));
  }
  FM_RETURN_IF_ERROR(engine.scheduler_.LoadFrom(&reader));
  if (engine.scheduler_.size() != engine.windows_.size()) {
    return Status::DataLoss(
        "fleet manifest scheduler does not cover its members");
  }
  FM_RETURN_IF_ERROR(reader.GetI64(&engine.coalesced_slides_));
  bool join_present = false;
  FM_RETURN_IF_ERROR(reader.GetBool(&join_present));
  if (join_present != engine.join_.has_value()) {
    return Status::DataLoss(
        "fleet manifest join presence contradicts its options echo");
  }
  if (join_present) FM_RETURN_IF_ERROR(engine.join_->LoadFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::DataLoss("fleet manifest has trailing bytes");
  }
  return engine;
}

FleetStats MotifFleetEngine::stats() const {
  FleetStats stats;
  stats.streams = static_cast<std::int64_t>(stream_map_.size());
  for (const WindowState& window : windows_) stats += window.engine_stats();
  for (const IngestFrontend& frontend : frontends_) {
    stats.reordered += frontend.stats().reordered;
    stats.late_dropped += frontend.stats().late_dropped;
    stats.reorder_buffered += static_cast<std::int64_t>(frontend.buffered());
    stats.reorder_buffered_peak =
        std::max(stats.reorder_buffered_peak, frontend.stats().buffered_peak);
  }
  stats.coalesced_slides = coalesced_slides_;
  return stats;
}

}  // namespace frechet_motif
