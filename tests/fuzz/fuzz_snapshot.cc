/// Fuzz harness for the durable decode stack, bottom to top:
///
///  1. BinaryReader primitives walked over the raw bytes (op codes
///     drawn from the input itself) — every Get* must fail with Status,
///     not read past the end or let a corrupt length prefix reach a
///     throwing resize(). The u64-length overflow in GetDoubleVector /
///     GetI32Vector (`Need(size * 8)` wrapping for size >= 2^61) was
///     found here; corpus/fuzz_snapshot/overflow-u64-len pins it, as
///     does BinaryCodec.VectorLengthOverflowIsDataLoss in
///     tests/durable_test.cc.
///
///  2. MotifFleetEngine::Restore on the bytes as a snapshot blob.
///     corpus/fuzz_snapshot/engine-snapshot is a current-layout blob
///     (FleetSnapshot.CommittedFuzzSeedRestores in tests/durable_test.cc
///     checks it restores, and rewrites it under FMOTIF_UPDATE_GOLDEN=1);
///     engine-snapshot-v1 keeps the version rejection covered.
///
///  3. StateStore::Open over an in-memory FaultFs (tests/fault_fs.h)
///     whose snap/wal files are carved from the input — the full
///     recovery chain (magic, version, CRC, sequence numbers) on
///     arbitrary directory contents.
///
/// Contract everywhere: DataLoss/InvalidArgument Status, never a
/// crash, throw, or giant allocation.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "durable/state_store.h"
#include "fault_fs.h"
#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/binary_codec.h"

namespace {

using frechet_motif::BinaryReader;
using frechet_motif::FleetOptions;
using frechet_motif::MotifFleetEngine;
using frechet_motif::StateStore;
using frechet_motif::Status;
using frechet_motif::testing_util::FaultFs;

/// The fixed engine shape the committed snapshot seed was generated
/// with (Restore checks the blob's echoed options against these;
/// FuzzSeedOptions in tests/durable_test.cc must match).
FleetOptions SeedOptions() {
  FleetOptions options;
  options.stream.window_length = 8;
  options.stream.slide_step = 2;
  options.stream.min_length_xi = 2;
  return options;
}

void WalkPrimitives(std::string_view input) {
  BinaryReader reader(input);
  std::uint8_t op = 0;
  // GetU8 advances one byte per iteration whether or not the chosen
  // op succeeds, so the walk always terminates.
  while (reader.GetU8(&op).ok()) {
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int32_t i32 = 0;
    std::int64_t i64 = 0;
    bool b = false;
    double d = 0.0;
    char buf[16];
    std::string s;
    std::vector<double> dv;
    std::vector<std::int32_t> iv;
    Status status = Status::Ok();
    switch (op % 10) {
      case 0: status = reader.GetU8(&u8); break;
      case 1: status = reader.GetU32(&u32); break;
      case 2: status = reader.GetU64(&u64); break;
      case 3: status = reader.GetI32(&i32); break;
      case 4: status = reader.GetI64(&i64); break;
      case 5: status = reader.GetBool(&b); break;
      case 6: status = reader.GetDouble(&d); break;
      case 7: status = reader.GetBytes(buf, op % sizeof(buf)); break;
      case 8: status = reader.GetString(&s); break;
      case 9:
        status = reader.GetDoubleVector(&dv);
        if (status.ok()) status = reader.GetI32Vector(&iv);
        break;
    }
    (void)status;  // failure is the expected outcome on garbage
    if (reader.position() > input.size()) __builtin_trap();
  }
}

void TryEngineRestore(std::string_view input) {
  auto restored = MotifFleetEngine::Restore(SeedOptions(),
                                            frechet_motif::Euclidean(), input);
  if (restored.ok()) {
    // A blob that validates must yield a usable engine: snapshotting it
    // again exercises the save path over fuzz-derived state.
    std::string again;
    if (!restored.value().Snapshot(&again).ok()) __builtin_trap();
  }
}

void TryStoreRecovery(std::string_view input) {
  FaultFs fs(/*seed=*/1);  // no faults armed; deterministic
  if (!fs.CreateDir("state").ok()) __builtin_trap();
  // Carve the input into a snapshot and a journal for generation 1:
  // the first byte picks the split point, so the fuzzer controls both
  // file shapes and their boundary.
  std::string_view rest = input;
  std::size_t split = 0;
  if (!rest.empty()) {
    split = static_cast<std::uint8_t>(rest[0]) % (rest.size());
    rest.remove_prefix(1);
    if (split > rest.size()) split = rest.size();
  }
  if (!fs.WriteFile("state/snap-000001", rest.substr(0, split)).ok() ||
      !fs.WriteFile("state/wal-000001", rest.substr(split)).ok()) {
    __builtin_trap();
  }
  auto store = StateStore::Open(&fs, "state");
  if (store.ok()) {
    // Whatever recovery accepted, the store must be writable after one
    // Checkpoint (the documented re-arm step).
    if (!store.value().Checkpoint("post-fuzz").ok()) __builtin_trap();
    if (!store.value().AppendRecord("r").ok()) __builtin_trap();
    if (!store.value().SyncJournal().ok()) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  WalkPrimitives(input);
  TryEngineRestore(input);
  TryStoreRecovery(input);
  return 0;
}
