#ifndef FRECHET_MOTIF_PUBLIC_DURABLE_H_
#define FRECHET_MOTIF_PUBLIC_DURABLE_H_

/// \file
/// Public durability surface: crash-safe snapshot + journal persistence
/// for the streaming engines.
///
/// `DurableFleet` is a `MotifFleetEngine` bound to a state directory.
/// The engine ends every mutating call (`AddStream`/`AddCrossPair`,
/// `Ingest` and the `Push` conveniences, `Drain`, `Flush`) through a
/// protected hook; `DurableFleet` overrides it to append the call, with
/// its raw arguments, to a CRC-framed journal. The engine's full
/// manifest — each member's options and window points, incremental
/// bounds, carried thresholds and tie-break state, reorder buffers and
/// watermarks, scheduler, join verdict cache — is checkpointed into
/// versioned, checksummed snapshot generations with atomic rename
/// rotation. The ring distance matrices are not stored: restore
/// re-derives them from the window points through the ingest path.
/// Reopening the same directory after a crash recovers the newest valid
/// snapshot, makes the journal tail's calls again (skipping a torn or
/// corrupt trailing record), and continues **bit-identically**: every
/// future report — candidate, distance, tie resolution, DP-cell
/// counters, join deltas — matches the run that never crashed, and a
/// point still held in a reorder buffer survives once its call's record
/// is synced. The guarantee is enforced by a fault-injection harness
/// (tests/durable_recovery_fuzz_test.cc) that kills the "process"
/// between writes, syncs, and renames, tears trailing writes, and
/// flips bits in snapshots.
///
/// ```
/// DurableOptions durable;
/// durable.state_dir = "/var/lib/fmotif/fleet";
/// auto fleet = DurableFleet::Open(options, Haversine(), durable);
/// // fleet->recovery().replayed_records == journal tail replayed
/// fleet->AddStream();
/// fleet->Push(0, p, t);            // journaled + synced before return
/// ```
///
/// `OpenFleetEngine` picks between a plain engine and a DurableFleet by
/// whether `DurableOptions::state_dir` is set — how the CLI and the
/// serve tier hold a single engine either way. Underneath,
/// `MotifFleetEngine::Snapshot`/`Restore` round-trips any engine — a
/// single stream is a one-member fleet — through raw bytes.

#include "durable/durable_fleet.h"
#include "durable/durable_fs.h"
#include "durable/state_store.h"

#endif  // FRECHET_MOTIF_PUBLIC_DURABLE_H_
