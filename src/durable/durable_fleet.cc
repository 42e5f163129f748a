#include "durable/durable_fleet.h"

#include <string>
#include <utility>

#include "util/binary_codec.h"

namespace frechet_motif {

namespace {

/// Journal record kinds (first payload byte). Every record continues
/// with a failed-call flag, then the call's arguments. Kinds 1 and 2
/// belonged to a format whose state dirs Restore no longer reads; they
/// are rejected like any unknown kind.
constexpr std::uint8_t kAddStreamRecord = 3;
constexpr std::uint8_t kAddCrossPairRecord = 4;
constexpr std::uint8_t kIngestRecord = 5;
constexpr std::uint8_t kDrainRecord = 6;
constexpr std::uint8_t kFlushRecord = 7;

void EncodeBatch(const std::vector<FleetArrival>& batch, BinaryWriter* writer) {
  writer->PutU64(batch.size());
  for (const FleetArrival& a : batch) {
    writer->PutU32(static_cast<std::uint32_t>(a.stream));
    writer->PutBool(a.has_timestamp);
    writer->PutDouble(a.point.x);
    writer->PutDouble(a.point.y);
    if (a.has_timestamp) writer->PutDouble(a.timestamp);
  }
}

Status DecodeBatch(BinaryReader* reader, std::vector<FleetArrival>* out) {
  std::uint64_t count = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&count));
  out->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    FleetArrival a;
    std::uint32_t stream = 0;
    FM_RETURN_IF_ERROR(reader->GetU32(&stream));
    a.stream = stream;
    FM_RETURN_IF_ERROR(reader->GetBool(&a.has_timestamp));
    FM_RETURN_IF_ERROR(reader->GetDouble(&a.point.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&a.point.y));
    if (a.has_timestamp) FM_RETURN_IF_ERROR(reader->GetDouble(&a.timestamp));
    out->push_back(a);
  }
  return Status::Ok();
}

/// A member's window configuration; `threads` is a fleet-level runtime
/// choice and is not recorded.
void EncodeMemberOptions(const StreamOptions& options, BinaryWriter* writer) {
  writer->PutI32(options.window_length);
  writer->PutI32(options.slide_step);
  writer->PutI32(options.min_length_xi);
  writer->PutDouble(options.approximation_epsilon);
}

Status DecodeMemberOptions(BinaryReader* reader, StreamOptions* options) {
  FM_RETURN_IF_ERROR(reader->GetI32(&options->window_length));
  FM_RETURN_IF_ERROR(reader->GetI32(&options->slide_step));
  FM_RETURN_IF_ERROR(reader->GetI32(&options->min_length_xi));
  return reader->GetDouble(&options->approximation_epsilon);
}

}  // namespace

DurableFleet::DurableFleet(MotifFleetEngine engine, StateStore store,
                           std::unique_ptr<DurableFs> owned_fs,
                           const DurableOptions& durable)
    : MotifFleetEngine(std::move(engine)),
      store_(std::move(store)),
      owned_fs_(std::move(owned_fs)),
      checkpoint_interval_(durable.checkpoint_interval_records),
      sync_each_record_(durable.sync_each_record) {}

StatusOr<DurableFleet> DurableFleet::Open(const FleetOptions& options,
                                          const GroundMetric& metric,
                                          const DurableOptions& durable) {
  if (durable.state_dir.empty()) {
    return Status::InvalidArgument("DurableOptions::state_dir is empty");
  }
  std::unique_ptr<DurableFs> owned_fs;
  DurableFs* fs = durable.fs;
  if (fs == nullptr) {
    owned_fs = std::make_unique<PosixFs>();
    fs = owned_fs.get();
  }

  StatusOr<StateStore> store = StateStore::Open(fs, durable.state_dir);
  if (!store.ok()) return store.status();
  const RecoveredState& recovered = store.value().recovered();

  StatusOr<MotifFleetEngine> engine =
      recovered.has_snapshot
          ? MotifFleetEngine::Restore(options, metric, recovered.snapshot)
          : MotifFleetEngine::Create(options, metric);
  if (!engine.ok()) return engine.status();

  DurableFleet fleet(std::move(engine).value(), std::move(store).value(),
                     std::move(owned_fs), durable);
  // `recovered` dangles once `store` is moved into the fleet; report the
  // recovery from the store's own (moved-along) state.
  fleet.recovery_.restored_snapshot = fleet.store_.recovered().has_snapshot;
  fleet.recovery_.replayed_records = fleet.store_.recovered().records.size();

  // Redo the journal tail: every record is one call the original process
  // made after the snapshot. The calls are journaled already.
  fleet.replaying_ = true;
  for (const std::string& record : fleet.store_.recovered().records) {
    FM_RETURN_IF_ERROR(fleet.Replay(record));
  }
  fleet.replaying_ = false;

  // Rotate immediately: new records must never extend a journal whose
  // tail was just found torn.
  FM_RETURN_IF_ERROR(fleet.Checkpoint());
  return fleet;
}

Status DurableFleet::OnEngineCall(const EngineCall& call) {
  if (replaying_) return Status::Ok();
  // Indexed by EngineCall::Kind.
  constexpr std::uint8_t kRecordKind[] = {kAddStreamRecord, kAddCrossPairRecord,
                                          kIngestRecord, kDrainRecord,
                                          kFlushRecord};
  BinaryWriter writer;
  writer.PutU8(kRecordKind[static_cast<int>(call.kind)]);
  writer.PutBool(call.failed);
  if (call.member_options != nullptr) {
    EncodeMemberOptions(*call.member_options, &writer);
  }
  if (call.batch != nullptr) EncodeBatch(*call.batch, &writer);
  FM_RETURN_IF_ERROR(store_.AppendRecord(writer.Take()));
  if (sync_each_record_) FM_RETURN_IF_ERROR(store_.SyncJournal());
  if (checkpoint_interval_ > 0 &&
      store_.records_in_journal() >= checkpoint_interval_) {
    return Checkpoint();
  }
  return Status::Ok();
}

Status DurableFleet::Replay(std::string_view record) {
  BinaryReader reader(record);
  std::uint8_t kind = 0;
  FM_RETURN_IF_ERROR(reader.GetU8(&kind));
  if (kind < kAddStreamRecord || kind > kFlushRecord) {
    return Status::DataLoss("unknown journal record kind " +
                            std::to_string(kind));
  }
  bool failed = false;
  FM_RETURN_IF_ERROR(reader.GetBool(&failed));
  const bool add = kind == kAddStreamRecord || kind == kAddCrossPairRecord;
  StreamOptions member = options().stream;
  std::vector<FleetArrival> batch;
  if (add) {
    FM_RETURN_IF_ERROR(DecodeMemberOptions(&reader, &member));
  } else if (kind == kIngestRecord) {
    FM_RETURN_IF_ERROR(DecodeBatch(&reader, &batch));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("journal record has trailing bytes");
  }

  // The same call again; it must succeed or fail as it did originally.
  Status status;
  if (add) {
    status = kind == kAddStreamRecord ? AddStream(member).status()
                                      : AddCrossPair(member).status();
  } else {
    StatusOr<FleetReport> report = kind == kDrainRecord   ? Drain()
                                   : kind == kFlushRecord ? Flush()
                                                          : Ingest(batch);
    status = report.status();
    if (report.ok()) {
      recovery_.replay_reports.push_back(std::move(report).value());
    }
  }
  if (status.ok() == failed) {
    return Status::DataLoss(
        "journal replay diverged: a call recorded as " +
        std::string(failed ? "failed" : "successful") + " now " +
        (status.ok() ? "succeeds" : "fails: " + status.message()));
  }
  return Status::Ok();
}

Status DurableFleet::Checkpoint() {
  std::string snapshot;
  FM_RETURN_IF_ERROR(Snapshot(&snapshot));
  return store_.Checkpoint(snapshot);
}

Status DurableFleet::Sync() { return store_.SyncJournal(); }

StatusOr<std::unique_ptr<MotifFleetEngine>> OpenFleetEngine(
    const FleetOptions& options, const GroundMetric& metric,
    const DurableOptions& durable) {
  if (!durable.state_dir.empty()) {
    StatusOr<DurableFleet> fleet = DurableFleet::Open(options, metric, durable);
    if (!fleet.ok()) return fleet.status();
    return std::unique_ptr<MotifFleetEngine>(
        std::make_unique<DurableFleet>(std::move(fleet).value()));
  }
  StatusOr<MotifFleetEngine> engine = MotifFleetEngine::Create(options, metric);
  if (!engine.ok()) return engine.status();
  return std::make_unique<MotifFleetEngine>(std::move(engine).value());
}

}  // namespace frechet_motif
