#ifndef FRECHET_MOTIF_STREAM_SEARCH_SCHEDULER_H_
#define FRECHET_MOTIF_STREAM_SEARCH_SCHEDULER_H_

/// Staleness/dirty-cell search scheduling for a fleet of streaming
/// windows.
///
/// Searching each window the moment its cadence fires treats every
/// stream alone; a shared engine instead accumulates *due* windows and
/// decides which to re-search first (and, under a search budget, which
/// to defer — a deferred window simply coalesces its pending slides into
/// one larger search). The scheduler tracks, per stream, the appends
/// since the last search (each append dirties one ring row+column, i.e.
/// Θ(W) matrix cells, so appends order streams exactly as dirty-cell
/// counts do) and a last-searched tick for staleness.
///
/// Priority is deterministic: most dirty appends first, then least
/// recently searched, then smallest stream id. Determinism matters — the
/// fleet's answers are compared bit-for-bit against one-member fleets,
/// and a stable drain order keeps every report sequence reproducible.
///
/// The scheduler is pure bookkeeping: it never touches window state, so
/// callers are free to run the searches it orders on any thread.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/trajectory.h"
#include "util/binary_codec.h"
#include "util/status.h"

namespace frechet_motif {

class SearchScheduler {
 public:
  /// Adds a stream; ids are assigned densely (0, 1, ...).
  std::size_t Register();

  std::size_t size() const { return entries_.size(); }

  /// Records one append to `stream` (advances its dirty measure).
  void NoteAppend(std::size_t stream);

  /// Marks `stream` as needing a search. Idempotent.
  void MarkDue(std::size_t stream);

  bool IsDue(std::size_t stream) const { return entries_[stream].due; }
  std::size_t due_count() const { return due_count_; }

  /// The due streams in drain priority order: most dirty appends first,
  /// ties by least recently searched, then by id. Does not clear the due
  /// marks — callers call NoteSearched per stream actually searched (a
  /// budgeted drain searches only a prefix).
  std::vector<std::size_t> DrainOrder() const;

  /// Clears `stream`'s due mark and dirty count and stamps its
  /// staleness tick.
  void NoteSearched(std::size_t stream);

  /// Serializes entries and the staleness tick — drain order is part of
  /// the fleet's determinism contract, so recovery restores it exactly.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores SaveTo's encoding, replacing this scheduler's state.
  Status LoadFrom(BinaryReader* reader);

 private:
  struct Entry {
    Index dirty_appends = 0;
    /// Tick of the last NoteSearched (-1 = never searched: maximally
    /// stale).
    std::int64_t last_searched = -1;
    bool due = false;
  };

  std::vector<Entry> entries_;
  std::size_t due_count_ = 0;
  std::int64_t tick_ = 0;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_SEARCH_SCHEDULER_H_
