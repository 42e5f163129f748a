#ifndef FRECHET_MOTIF_STREAM_INGEST_FRONTEND_H_
#define FRECHET_MOTIF_STREAM_INGEST_FRONTEND_H_

/// Arrival-side frontend for one streaming window: timestamps, batching,
/// and a watermark-based reorder buffer for out-of-order feeds.
///
/// The window engines (`WindowState`, and through it the monitor and the
/// fleet) require in-order arrivals — an appended point is immediately
/// part of the ring matrix and can never be re-ordered. Real feeds
/// (mobile uplinks, message queues) deliver slightly out of order, so
/// the frontend buffers up to `reorder_capacity` timestamped points in a
/// min-timestamp queue and releases them in timestamp order, exactly the
/// bounded-disorder watermark scheme of stream processors: the watermark
/// is the largest timestamp already *released* downstream, and a point
/// arriving below it is provably too late to reorder within the buffer
/// bound — it is dropped and counted (`IngestStats::late_dropped`)
/// rather than corrupting the window's in-order contract.
///
/// Capacity 0 (the default) and bare (untimestamped) arrivals pass
/// straight through. Points with equal timestamps release in arrival
/// order, so an in-order feed always passes through unchanged — the
/// frontend is invisible unless the feed actually reorders.
///
/// ## Tie semantics at the watermark
///
/// The boundary cases are deliberate and pinned by unit tests
/// (tests/ingest_frontend_test.cc):
///
///  * **"Late" means strictly below the watermark.** An arrival stamped
///    *exactly at* the watermark is accepted: releasing it immediately
///    after the equal-stamped point already released preserves
///    timestamp order, so dropping it would lose data for no ordering
///    benefit. Only `timestamp < watermark` drops (late_dropped).
///  * **Duplicate timestamps preserve arrival order**, both straight
///    through the buffer (the multimap inserts equal keys after
///    existing ones) and across the watermark (each equal-stamped
///    arrival re-sets the watermark to the same value and is released
///    after its predecessors). A run of equal stamps therefore comes
///    out exactly as it went in.
///  * **Duplicates are not "reordered"**: the `reordered` counter
///    increments only for an arrival strictly below the largest
///    buffered timestamp — an equal arrival keeps its place and needed
///    no fixing.
///  * The watermark only ever advances on *release*; buffering a point
///    does not move it.

#include <cstdint>
#include <functional>
#include <limits>
#include <map>

#include "core/trajectory.h"
#include "geo/point.h"
#include "util/binary_codec.h"
#include "util/status.h"

namespace frechet_motif {

/// Arrival accounting of one frontend.
struct IngestStats {
  /// Points released downstream (in timestamp order).
  std::int64_t released = 0;
  /// Points that arrived with a timestamp below an already-released one
  /// but were re-ordered successfully inside the buffer.
  std::int64_t reordered = 0;
  /// Points dropped because they arrived below the watermark — too late
  /// for the buffer capacity to fix.
  std::int64_t late_dropped = 0;
  /// High-water mark of the reorder buffer's occupancy — how much of
  /// `reorder_capacity` the feed's disorder actually needed.
  std::int64_t buffered_peak = 0;
};

class IngestFrontend {
 public:
  /// `reorder_capacity`: maximum timestamped points held back for
  /// reordering; 0 disables buffering entirely.
  explicit IngestFrontend(Index reorder_capacity = 0)
      : capacity_(reorder_capacity) {}

  /// Downstream sink: receives released points in order. `timestamp` is
  /// null for bare arrivals.
  using Sink = std::function<Status(const Point& p, const double* timestamp)>;

  /// Feeds one arrival. Released points (possibly none, possibly
  /// several) are handed to `sink` before the call returns. Bare
  /// arrivals bypass the buffer — reordering needs timestamps — but
  /// must not be mixed with timestamped ones while the buffer is
  /// non-empty.
  Status Offer(const Point& p, const double* timestamp, const Sink& sink);

  /// Releases everything still buffered, in timestamp order (end of
  /// stream, or a forced flush before a synchronous query).
  Status Flush(const Sink& sink);

  Index buffered() const { return static_cast<Index>(buffer_.size()); }
  const IngestStats& stats() const { return stats_; }

  /// The largest timestamp released downstream so far (-inf before the
  /// first timestamped release).
  double watermark() const { return watermark_; }

  /// Serializes watermark, flags, counters, and the buffered points
  /// (in timestamp order, preserving arrival order among equal stamps).
  void SaveTo(BinaryWriter* writer) const;

  /// Restores SaveTo's encoding into this frontend, replacing its
  /// state. The capacity is the constructor's business, not the
  /// snapshot's: a restored frontend keeps its configured capacity.
  Status LoadFrom(BinaryReader* reader);

 private:
  Index capacity_ = 0;
  /// Min-timestamp buffer; multimap keeps arrival order among equal keys.
  std::multimap<double, Point> buffer_;
  /// Largest timestamp released downstream so far.
  double watermark_ = -std::numeric_limits<double>::infinity();
  bool released_any_ = false;
  IngestStats stats_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_INGEST_FRONTEND_H_
