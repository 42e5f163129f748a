#ifndef FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_
#define FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_

/// Crash-safe `MotifFleetEngine`: snapshot + journal durability with
/// bit-exact recovery.
///
/// ## The journal is a log of engine calls
///
/// `DurableFleet` *is* the engine — a subclass that overrides its
/// `OnEngineCall` hook — so there is one ingest path, durable or not.
/// Every mutating call (`AddStream`/`AddCrossPair` with the member's
/// options, `Ingest` with the raw batch, `Drain`, `Flush`) appends one
/// journal record when it ends. The engine's snapshot holds its whole
/// state, reorder buffers and watermarks included, and the engine is
/// deterministic, so recovery is: restore the newest valid snapshot,
/// then make the same public calls again, one per record, with the hook
/// switched off. Replaying call by call reproduces call boundaries —
/// and with them search coalescing and join-tick grouping — bit for bit.
///
/// A call that fails part-way (say, a bare arrival meeting a non-empty
/// reorder buffer mid-batch) keeps its partial effects, so it is
/// journaled with a failure flag; replay expects the same failure and
/// reproduces the same partial effects. A batch rejected up front
/// (unknown stream, non-finite or out-of-range point) changes nothing
/// and writes no record.
///
/// ## Durability semantics
///
/// A call is durable once its record is synced (`sync_each_record`,
/// default on) — including points still held in a reorder buffer. A
/// call that changed nothing (an empty batch, a drain with nothing due,
/// a flush of empty buffers) writes no record.
///
/// `Open` recovers (newest valid snapshot + journal tail, see
/// state_store.h), then immediately checkpoints, so new records never
/// extend a journal whose tail was just found torn. A record of a kind
/// this build does not write (including the add-stream and
/// released-batch records of the format before calls were logged) fails
/// `Open` with DataLoss.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "durable/durable_fs.h"
#include "durable/state_store.h"
#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/status.h"

namespace frechet_motif {

/// Durability configuration, orthogonal to the engine's FleetOptions.
struct DurableOptions {
  /// State directory (created if missing) holding snapshots + journals.
  std::string state_dir;

  /// Auto-checkpoint after this many journal records (0 = only explicit
  /// Checkpoint calls).
  std::uint64_t checkpoint_interval_records = 1024;

  /// fsync the journal after every committed record. Off trades the
  /// last few records on crash for throughput (recovery still finds a
  /// valid prefix — the frames are CRC'd).
  bool sync_each_record = true;

  /// Filesystem override for fault injection (tests/fault_fs.h); null
  /// uses a process-owned PosixFs. Must outlive the fleet.
  DurableFs* fs = nullptr;
};

/// What `DurableFleet::Open` did to get back to the pre-crash state.
struct RecoveryInfo {
  bool restored_snapshot = false;
  std::uint64_t replayed_records = 0;
  /// Reports the replayed Ingest/Drain/Flush records regenerated, in
  /// journal order — the recovery fuzz harness checks them against the
  /// original run's.
  std::vector<FleetReport> replay_reports;
};

class DurableFleet : public MotifFleetEngine {
 public:
  /// Opens (recovering if state exists) a durable fleet. `metric` and
  /// `durable.fs` (when set) must outlive the fleet. `options` must
  /// match any recovered snapshot's configuration (threads excepted).
  static StatusOr<DurableFleet> Open(const FleetOptions& options,
                                     const GroundMetric& metric,
                                     const DurableOptions& durable);

  DurableFleet(DurableFleet&&) = default;
  DurableFleet& operator=(DurableFleet&&) = default;

  const RecoveryInfo& recovery() const { return recovery_; }

  /// Rotates to a fresh snapshot generation now.
  Status Checkpoint();

  /// Forces any unsynced journal records to stable storage (a no-op
  /// with `sync_each_record`).
  Status Sync();

  /// The fleet as a plain engine, for queries and parity checks.
  const MotifFleetEngine& engine() const { return *this; }

  std::uint64_t generation() const { return store_.generation(); }

 protected:
  /// Journals `call` (unless recovery is replaying it), syncing and
  /// checkpointing per the DurableOptions.
  Status OnEngineCall(const EngineCall& call) override;

 private:
  DurableFleet(MotifFleetEngine engine, StateStore store,
               std::unique_ptr<DurableFs> owned_fs,
               const DurableOptions& durable);

  /// Makes the call one journal record describes again.
  Status Replay(std::string_view record);

  StateStore store_;
  /// Set only when DurableOptions::fs was null.
  std::unique_ptr<DurableFs> owned_fs_;

  std::uint64_t checkpoint_interval_ = 1024;
  bool sync_each_record_ = true;
  /// True while Open replays the journal: the calls are already in it.
  bool replaying_ = false;

  RecoveryInfo recovery_;
};

/// The engine a front end runs: a DurableFleet over `durable.state_dir`
/// when one is set (recovering what it holds), otherwise a plain
/// in-memory MotifFleetEngine.
StatusOr<std::unique_ptr<MotifFleetEngine>> OpenFleetEngine(
    const FleetOptions& options, const GroundMetric& metric,
    const DurableOptions& durable);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_DURABLE_DURABLE_FLEET_H_
