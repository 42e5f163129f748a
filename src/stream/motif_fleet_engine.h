#ifndef FRECHET_MOTIF_STREAM_MOTIF_FLEET_ENGINE_H_
#define FRECHET_MOTIF_STREAM_MOTIF_FLEET_ENGINE_H_

/// The streaming engine: N sliding windows behind **one** arrival loop,
/// one scheduler, one worker pool — with an incrementally maintained DFD
/// ε-join across the windows. A single stream is simply a one-member
/// fleet; `fmotif stream`, `fmotif fleet` and `fmotif serve` all drive
/// this class. It composes the reusable streaming components:
///
///  * a `WindowState` per **member** (ring matrix + incremental bounds +
///    carried threshold — stream/window_state.h). A member is either a
///    single-trajectory stream or a cross-trajectory window *pair*, and
///    each member may carry its own StreamOptions (window length, slide
///    step, ξ, approximation ε) — the fleet can be fully heterogeneous;
///  * an `IngestFrontend` per stream id (timestamps, and the watermark
///    reorder buffer for out-of-order feeds — stream/ingest_frontend.h).
///    A cross member exposes two stream ids, one per side;
///  * one `SearchScheduler` ordering due re-searches by dirty-cell count
///    and staleness (stream/search_scheduler.h);
///  * one lazily created `ThreadPool` shared by every search. Every
///    search — a drain's and a parity guard's alike — goes through one
///    search-and-merge path: the searches run first, then their side
///    effects merge serially in drain order. A drain with several due
///    windows fans the searches out **one window per lane**
///    (independent windows, each search run whole on a lane —
///    bit-identical to the serial drain); a single due window spends
///    the same pool on intra-search parallelism instead;
///  * optionally one `IncrementalDfdJoin` (join/incremental_join.h)
///    maintaining which window pairs are within ε, emitting per-slide
///    join deltas.
///
/// ## Scheduling modes
///
/// With `max_searches_per_drain == 0` (default) the engine is
/// **parity-exact**: every due search runs within the `Ingest` call that
/// made it due (and before any further append to that stream), so each
/// member's report sequence is bit-identical — candidate, distance,
/// seeded/carried flags, DP-cell counters — to a one-member fleet fed the
/// same points one per `Push`, and every reported motif is bit-identical
/// to `FindMotif(BaselineOptions())` on the window (the exactness
/// argument is in stream/window_state.h). The scheduler still orders the
/// batch-end drain (dirtiest window first), which is where a
/// multi-stream batch amortizes: one tight append loop, then one
/// prioritized search pass sharing a single pool.
///
/// With `max_searches_per_drain == k > 0` the engine trades per-slide
/// latency for throughput: at most k searches run per Ingest/Drain call,
/// dirtiest-first, and a window left waiting simply **coalesces** its
/// pending slides — the eventual search covers a larger shift in one
/// pass (the carried threshold checks eviction itself, so it stays
/// sound). Every individual answer is still bit-identical to a
/// from-scratch `FindMotif` on the window at search time; the fleet just
/// answers for fewer intermediate windows, and so spends fewer DP cells
/// than an unbudgeted fleet on the same feed
/// (`FleetEngine.BudgetedDrainCoalescesAndStaysExact` asserts both).
///
/// ## Join deltas
///
/// With `join_epsilon >= 0`, every search refreshes that stream's window
/// snapshot in the incremental join, and the report carries the delta —
/// stream pairs entering/leaving ε — whose accumulation is provably
/// identical to a from-scratch `DfdSelfJoin` over the current snapshots
/// (see join/incremental_join.h for the argument).
///
/// ## Durability hook
///
/// Every mutating call — `AddStream`/`AddCrossPair`, `Ingest` (and the
/// `Push` conveniences over it), `Drain`, `Flush` — ends by handing
/// itself to the protected `OnEngineCall` hook, which does nothing here.
/// `DurableFleet` (src/durable/) overrides it to journal the call, so
/// the engine has one ingest path whether or not it is durable, and
/// recovery is the same public calls made again.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geo/metric.h"
#include "join/incremental_join.h"
#include "stream/ingest_frontend.h"
#include "stream/search_scheduler.h"
#include "stream/window_state.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace frechet_motif {

/// Configuration of a MotifFleetEngine.
struct FleetOptions {
  /// Default per-stream window configuration (window length W, slide
  /// step, ξ, approximation ε). Members added with the plain AddStream()
  /// / AddCrossPair() overloads use it; the explicit-options overloads
  /// let every member carry its own geometry and tolerance — the fleet
  /// may be fully heterogeneous. The `threads` field doubles as the
  /// engine-level worker-pool size shared by every search.
  StreamOptions stream;

  /// ε (meters) for the cross-fleet window join; negative disables it.
  /// Any other value, NaN included, must be finite (ValidateDfdThreshold).
  double join_epsilon = -1.0;

  /// Watermark reorder-buffer capacity per stream (see IngestFrontend);
  /// 0 expects in-order feeds.
  Index reorder_capacity = 0;

  /// Search admission per Ingest/Drain call: 0 = run every due search
  /// (parity-exact with one-member fleets); k > 0 = at most k,
  /// dirtiest-first, deferring (and coalescing) the rest.
  int max_searches_per_drain = 0;

  /// The join configuration derived from `join_epsilon` (cascade knobs at
  /// their defaults).
  JoinOptions JoinConfig() const {
    JoinOptions join;
    join.threshold = join_epsilon;
    return join;
  }
};

/// One arrival routed to one stream of the fleet.
struct FleetArrival {
  std::size_t stream = 0;
  Point point;
  bool has_timestamp = false;
  double timestamp = 0.0;
};

/// One per-slide report of one member, keyed by the member's primary
/// stream id (its only id for a single-trajectory member; the side-0 id
/// for a cross pair — the update's candidate then spans both windows,
/// second-window indices in `update.motif.best.j/je`).
struct FleetStreamUpdate {
  std::size_t stream = 0;
  StreamUpdate update;
};

/// Everything one Ingest/Drain call produced: slide reports in execution
/// order (mid-batch parity searches first, then the scheduler's drain
/// order) and the join delta across all of them.
struct FleetReport {
  std::vector<FleetStreamUpdate> updates;
  JoinDelta join_delta;

  bool empty() const { return updates.empty() && join_delta.empty(); }
};

/// Fleet-wide counter snapshot: the per-window engine counters summed
/// over members, plus the frontends' and the engine's own scheduling
/// counters.
struct FleetStats : StreamEngineStats {
  std::int64_t streams = 0;
  /// Slides merged into deferred searches under a search budget (a
  /// search covering 3 slide-steps' worth of appends counts 2).
  std::int64_t coalesced_slides = 0;
  /// Out-of-order arrivals fixed by the reorder buffers / dropped below
  /// the watermark.
  std::int64_t reordered = 0;
  std::int64_t late_dropped = 0;
  /// Points currently held back in reorder buffers (sum over streams)
  /// and the worst single-stream occupancy ever reached — how much of
  /// `reorder_capacity` the feeds' disorder actually needed.
  std::int64_t reorder_buffered = 0;
  std::int64_t reorder_buffered_peak = 0;
};

class MotifFleetEngine {
 public:
  /// Validates the options; streams are added afterwards. The metric
  /// must outlive the engine.
  static StatusOr<MotifFleetEngine> Create(const FleetOptions& options,
                                           const GroundMetric& metric);

  MotifFleetEngine(const MotifFleetEngine&) = delete;
  MotifFleetEngine& operator=(const MotifFleetEngine&) = delete;
  MotifFleetEngine(MotifFleetEngine&&) = default;
  MotifFleetEngine& operator=(MotifFleetEngine&&) = default;
  virtual ~MotifFleetEngine() = default;

  /// Adds one single-trajectory stream with the fleet's default
  /// StreamOptions; ids are dense, starting at 0. While only this
  /// overload is used, stream ids and member indices coincide — the
  /// original homogeneous-fleet behavior.
  StatusOr<std::size_t> AddStream();

  /// Adds one single-trajectory stream with its own window configuration
  /// (heterogeneous fleets: members may differ in window length, slide
  /// step, ξ and approximation ε). The `threads` field of per-member
  /// options is ignored — the engine-level pool (sized by
  /// FleetOptions::stream.threads) is shared by every search.
  StatusOr<std::size_t> AddStream(const StreamOptions& stream_options);

  /// Adds one cross-trajectory member: a window *pair* searched for the
  /// best motif between the two trajectories, drained by the same
  /// scheduler as the single-trajectory members. Returns the two dense
  /// stream ids created — first (side 0) and second (side 1); arrivals
  /// are routed per side through their own ingest frontends. Reports for
  /// this member carry the side-0 id as their `stream`.
  StatusOr<std::pair<std::size_t, std::size_t>> AddCrossPair();
  StatusOr<std::pair<std::size_t, std::size_t>> AddCrossPair(
      const StreamOptions& stream_options);

  /// Number of addressable streams (a cross member contributes two).
  std::size_t stream_count() const { return stream_map_.size(); }

  /// Number of members (windows) — the scheduler's and join's key space.
  std::size_t member_count() const { return windows_.size(); }

  /// The window configuration of the member owning `stream`.
  const StreamOptions& stream_options(std::size_t stream) const {
    return windows_[stream_map_[stream].member].options();
  }

  /// Ingests a batch through one arrival loop: appends every point (via
  /// its stream's frontend), then drains due searches per the scheduling
  /// mode and ticks the join. See the file comment for the two modes'
  /// guarantees. The whole batch is checked first — known stream ids,
  /// ValidateArrival (geo/metric.h) — and a batch failing the check is
  /// rejected before it changes any state.
  StatusOr<FleetReport> Ingest(const std::vector<FleetArrival>& batch);

  /// Single-arrival conveniences (one-element Ingest).
  StatusOr<FleetReport> Push(std::size_t stream, const Point& p);
  StatusOr<FleetReport> Push(std::size_t stream, const Point& p,
                             double timestamp);

  /// Runs pending due searches (budget applies) without ingesting, and
  /// ticks the join. Under a budget, call repeatedly to work off a
  /// backlog.
  StatusOr<FleetReport> Drain();

  /// Flushes every reorder buffer (end of feed) and drains whatever that
  /// released. A no-op when nothing is buffered.
  StatusOr<FleetReport> Flush();

  /// True when `stream`'s member has a search due but not yet run (only
  /// possible between calls under a search budget).
  bool SearchPending(std::size_t stream) const {
    return scheduler_.IsDue(stream_map_[stream].member);
  }

  /// The window contents feeding `stream` — the member's second window
  /// for a cross pair's side-1 id.
  Trajectory WindowTrajectory(std::size_t stream) const {
    const StreamRef& ref = stream_map_[stream];
    return windows_[ref.member].WindowTrajectory(ref.side);
  }
  Index window_size(std::size_t stream) const {
    const StreamRef& ref = stream_map_[stream];
    return windows_[ref.member].window_size(ref.side);
  }
  /// Engine counters of the member owning `stream` (a cross pair's two
  /// ids share one window state, hence one counter set).
  const StreamEngineStats& stream_stats(std::size_t stream) const {
    return windows_[stream_map_[stream].member].engine_stats();
  }
  const IngestStats& ingest_stats(std::size_t stream) const {
    return frontends_[stream].stats();
  }
  /// Points currently held in `stream`'s reorder buffer.
  Index stream_buffered(std::size_t stream) const {
    return frontends_[stream].buffered();
  }

  /// Aggregated counters (computed on demand).
  FleetStats stats() const;

  /// The incremental join's counters; null when the join is disabled.
  const IncrementalJoinStats* join_stats() const {
    return join_.has_value() ? &join_->stats() : nullptr;
  }

  /// The join's accumulated match set (empty when disabled) — for parity
  /// checks against a from-scratch DfdSelfJoin.
  std::vector<JoinPair> CurrentJoinMatches() const {
    return join_.has_value() ? join_->CurrentMatches() : std::vector<JoinPair>();
  }

  const FleetOptions& options() const { return options_; }

  /// Serializes the fleet manifest into `out`: an options echo, every
  /// member's options (once) and WindowState — its points, not its ring
  /// matrix — every stream's frontend, the scheduler (drain order is
  /// deterministic state), the coalesced-slide counter, and the join's
  /// verdict-cache epoch. Restore() on the result continues
  /// bit-identically — see WindowState::SaveTo for the per-window
  /// contract. The blob is raw state, not a file format; the durable
  /// layer (src/durable/) adds versioning, checksums, and rotation.
  Status Snapshot(std::string* out) const;

  /// Rebuilds an engine from Snapshot()'s bytes. `options` must match
  /// the snapshot's echoed configuration except for
  /// `stream.threads` (a runtime choice with bit-identical results).
  /// A manifest of another layout version is DataLoss.
  static StatusOr<MotifFleetEngine> Restore(const FleetOptions& options,
                                            const GroundMetric& metric,
                                            std::string_view snapshot);

 protected:
  /// One finished mutating call with its arguments — enough to make the
  /// same call again.
  struct EngineCall {
    enum class Kind : std::uint8_t {
      kAddStream,
      kAddCrossPair,
      kIngest,
      kDrain,
      kFlush
    };
    Kind kind = Kind::kIngest;
    /// kAddStream / kAddCrossPair: the new member's options.
    const StreamOptions* member_options = nullptr;
    /// kIngest: the batch exactly as passed in (before reordering).
    const std::vector<FleetArrival>* batch = nullptr;
    /// The call failed part-way. Its partial effects stand, and the same
    /// call on the same state fails at the same point.
    bool failed = false;
  };

  /// Called at the end of every mutating call that changed the engine or
  /// failed part-way; a batch rejected up front, and an
  /// Ingest/Drain/Flush that found nothing to do, never get here. A
  /// non-ok return becomes the call's result. The base engine does
  /// nothing.
  virtual Status OnEngineCall(const EngineCall& /*call*/) {
    return Status::Ok();
  }

 private:
  /// One addressable stream: which member's window it feeds, and on
  /// which side (side 1 only for a cross member's second trajectory).
  struct StreamRef {
    std::size_t member = 0;
    int side = 0;
  };

  MotifFleetEngine(const FleetOptions& options, const GroundMetric& metric);

  Status CheckStream(std::size_t stream) const;

  /// Shared tail of the AddStream/AddCrossPair overloads: creates the
  /// window, registers it with the scheduler, and allocates its one or
  /// two stream ids. Returns the member index.
  StatusOr<std::size_t> AddMember(const StreamOptions& stream_options,
                                  bool cross);

  /// Appends one released (post-frontend) point, bookkeeping the
  /// scheduler; runs the parity-guard search (RunSearches with the one
  /// member) first when required.
  Status Deliver(std::size_t stream, const Point& p, const double* timestamp,
                 FleetReport* report);

  /// The shared search pool, created on first use; null when the fleet
  /// searches serially (FleetOptions::stream.threads resolves to 1).
  ThreadPool* SearchPool();

  /// The one search-and-merge path: runs the searches of `members` (in
  /// drain order), then applies every side effect — coalescing
  /// accounting, scheduler bookkeeping, join refresh, report append
  /// (keyed by the member's side-0 stream id) — serially in that order.
  /// Several members with a pool fan out one whole window per lane
  /// (windows are independent; each search runs serially inside its
  /// lane); otherwise the searches run one after another, each spending
  /// the pool on intra-search parallelism. Because the side-effect
  /// sequence is the same either way and each search is deterministic,
  /// the report stream is bit-identical across both.
  Status RunSearches(const std::vector<std::size_t>& members,
                     FleetReport* report);

  /// Drains due searches per the scheduling mode, then ticks the join if
  /// anything changed.
  Status DrainInternal(FleetReport* report);

  /// Ends an Ingest/Drain/Flush: hands it to OnEngineCall when it
  /// `changed` the engine or failed, then returns `status` or `report`.
  StatusOr<FleetReport> FinishCall(EngineCall call, bool changed,
                                   const Status& status, FleetReport report);

  FleetOptions options_;
  const GroundMetric* metric_;

  /// Members (one WindowState each — a cross member's state holds the
  /// window pair, and its options are the member's own), with each
  /// member's side-0 ("primary") stream id. The scheduler and the join
  /// are keyed by member index; `stream_map_` resolves a public stream
  /// id to its member and side. Frontends are per stream id — each side
  /// of a cross pair reorders and watermarks independently.
  std::vector<WindowState> windows_;
  std::vector<std::size_t> member_primary_;
  std::vector<StreamRef> stream_map_;
  std::vector<IngestFrontend> frontends_;
  SearchScheduler scheduler_;
  std::optional<IncrementalDfdJoin> join_;

  /// Shared worker pool, created on first threaded search and reused
  /// (workers park between searches).
  std::unique_ptr<ThreadPool> pool_;

  std::int64_t coalesced_slides_ = 0;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_MOTIF_FLEET_ENGINE_H_
