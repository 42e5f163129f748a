#ifndef FRECHET_MOTIF_STREAM_WINDOW_STATE_H_
#define FRECHET_MOTIF_STREAM_WINDOW_STATE_H_

/// Per-stream sliding-window state: the reusable core of the streaming
/// engine.
///
/// A WindowState owns everything one bounded window needs to answer
/// motif queries incrementally — the ring ground-distance matrix (one
/// fresh row/column per append, O(1) eviction), the incrementally
/// maintained RelaxedBounds minima, the window point/timestamp caches,
/// and the previous optimum carried as the next search's pruning
/// threshold. It deliberately contains **no scheduling policy**: when to
/// run a search is the caller's decision (`MotifFleetEngine` batches due
/// windows through a `SearchScheduler`). Because a search's answer
/// depends only on the window contents at search time, any caller that
/// runs the search before the next append to this window reproduces the
/// search-on-every-slide behavior bit for bit.
///
/// ## Exactness (the contract of `RunSearch()`)
///
/// Every search — candidate and distance, ties included — is
/// **bit-identical** to a from-scratch `FindMotif` over the same window
/// with `StreamOptions::BaselineOptions()` (the relaxed BTM
/// configuration). The argument, in brief:
///
///  * Ring-matrix cells are the same doubles a fresh
///    DistanceMatrix::Build computes, and the maintained bound arrays
///    equal a fresh RelaxedBounds::Build (minima of identical values).
///  * On a seeded slide the search walks the baseline's sorted subset
///    queue (identical (lb, i, j) order) with two sound restrictions.
///    (1) Its initial threshold is T = the previous window's motif
///    distance, achievable because the previous best pair still lies in
///    the window — so the optimum d* <= T. (2) *Clean* candidates
///    (every point surviving from the previous window) were valid
///    candidates there, hence have DFD >= T; only *dirty* candidates —
///    reaching into the freshly appended points — can strictly improve,
///    and a dirty candidate's coupling path crosses every column from
///    its start to the dirty frontier, so subsets whose frontier
///    crossing bound (a suffix-max of Rmin) exceeds T are dropped before
///    any DP work.
///  * Every pruning rule anywhere in the search (queue skip, dirty-
///    frontier drop, endpoint caps, the DP's cell freeze) discards only
///    candidates *strictly* worse than the running threshold >= d*, so
///    both searches evaluate every d*-achiever that is dirty, and
///    `SearchState::Record` resolves achievers to the canonical
///    (i, j, ie, je) minimum regardless of evaluation order.
///  * Ties across the clean/dirty split resolve by comparing the
///    search's best against the previous optimum shifted into the new
///    window: candidate order is shift-invariant, so the shifted
///    previous pair — the canonical minimum of the *whole* previous
///    window, by induction — is the canonical minimum among clean
///    achievers, and the smaller of the two under (distance, candidate)
///    order is exactly the from-scratch answer. When the previous pair
///    wins, the slide reports it as `carried` without re-deriving it.
///
/// When the previous best pair was evicted (or on the first full
/// window), the slide falls back to an unseeded, unrestricted search —
/// identical to the from-scratch baseline by construction. A deferred
/// search (several slides' worth of appends) is covered by the same
/// argument: the carry checks eviction against the whole shift.
///
/// ## Cost per slide
///
/// O(s·W) ground-metric evaluations (s = slide step, W = window) for the
/// fresh matrix cells instead of Build's O(W²), O(s·W) amortized reads
/// for bound maintenance, plus — on seeded slides — one O(W²) pass of
/// plain matrix *reads* (no metric evaluations, no DP arithmetic) to
/// compute the dirty-frontier bounds; the subset enumeration itself is
/// already Θ(W²), so this does not change the slide's asymptotic read
/// cost. In exchange the subset search's DP work
/// (`StreamUpdate::stats.dfd_cells_computed`) is never more than the
/// from-scratch search's: the dirty-frontier restriction drops the
/// subsets far from the new points and the carried threshold prunes the
/// rest from the first evaluation on.

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "motif/motif.h"
#include "motif/relaxed_bounds.h"
#include "motif/stats.h"
#include "stream/incremental_bounds.h"
#include "util/binary_codec.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace frechet_motif {

/// Configuration of one streaming window. Deliberately
/// FindMotifOptions-compatible: BaselineOptions() returns the exact
/// from-scratch configuration the streaming answers are bit-identical to.
struct StreamOptions {
  /// Window length W: the motif is maintained over the last W points.
  /// Must admit a valid candidate (W >= 2ξ + 4 for the single-trajectory
  /// problem).
  Index window_length = 512;

  /// Re-search cadence: a search becomes due once the window is full and
  /// then after every `slide_step` further appended points (the window
  /// having slid by that amount). Must be >= 1.
  Index slide_step = 32;

  /// Minimum motif length ξ (paper default 100).
  Index min_length_xi = 100;

  /// Worker threads for the per-slide search, as FindMotifOptions::threads
  /// (1 = serial, 0 = all hardware threads; results are bit-identical for
  /// every setting).
  int threads = 1;

  /// Approximation tolerance ε for the per-slide search: every reported
  /// window distance is at most (1+ε) times that window's exact optimum.
  /// The guarantee is per window and does not compound across slides —
  /// the carried threshold is always an exactly-achievable distance of an
  /// in-window candidate, so each search independently prunes against
  /// bounds scaled by (1+ε) of a valid value. 0 (default) keeps the
  /// stream exact and bit-identical to the from-scratch baseline.
  /// Must be finite and >= 0.
  double approximation_epsilon = 0.0;

  /// The from-scratch FindMotif configuration every streaming answer is
  /// bit-identical to (at approximation_epsilon == 0; within (1+ε)
  /// otherwise): the relaxed bounding search (MotifAlgorithm::kBtm) with
  /// this ξ, thread count and ε.
  FindMotifOptions BaselineOptions() const {
    FindMotifOptions o;
    o.algorithm = MotifAlgorithm::kBtm;
    o.min_length_xi = min_length_xi;
    o.threads = threads;
    o.approximation_epsilon = approximation_epsilon;
    return o;
  }
};

/// One per-slide report emitted by a streaming search.
struct StreamUpdate {
  /// Global stream index of window point 0 (and, in cross mode, of the
  /// second window's point 0): window-relative index k corresponds to
  /// stream point window_start + k.
  std::int64_t window_start = 0;
  std::int64_t window_start_second = 0;

  /// Points in the window(s) at search time (== StreamOptions::window_length).
  Index window_points = 0;

  /// Whether the search was seeded with the previous window's distance
  /// (false on the first search and when the previous best was evicted).
  bool seeded = false;

  /// The seed threshold (+infinity when unseeded).
  double seed_threshold = std::numeric_limits<double>::infinity();

  /// True when no dirty candidate preceded the previous optimum (shifted
  /// into the new window) under the canonical (distance, candidate)
  /// order, so the motif is that shifted previous pair. Carried or not,
  /// the reported candidate and distance are bit-identical to the
  /// from-scratch answer (ties included — see the exactness argument in
  /// the file comment).
  bool carried = false;

  /// The approximation tolerance the search ran with
  /// (StreamOptions::approximation_epsilon; 0 = exact). Echoed so every
  /// report frame names the guarantee its distance carries.
  double approximation_epsilon = 0.0;

  /// The window's motif, in window-relative indices.
  MotifResult motif;

  /// Search counters for this slide alone. `dfd_cells_computed` is the
  /// number the acceptance comparison against a from-scratch search uses.
  MotifStats stats;
};

/// Cumulative engine counters across one window's lifetime.
struct StreamEngineStats {
  std::int64_t points_ingested = 0;
  std::int64_t searches = 0;
  std::int64_t seeded_searches = 0;
  /// Fresh ground-metric evaluations paid for matrix maintenance — the
  /// streaming replacement for Build's O(W²) per query.
  std::int64_t ground_distances_computed = 0;
  /// Total DP cells across all searches.
  std::int64_t dfd_cells_computed = 0;
  /// Bound-maintenance rescans caused by evicted minimizers.
  std::int64_t bound_rescans = 0;

  /// Field-wise sum (aggregating windows into fleet totals).
  StreamEngineStats& operator+=(const StreamEngineStats& other) {
    points_ingested += other.points_ingested;
    searches += other.searches;
    seeded_searches += other.seeded_searches;
    ground_distances_computed += other.ground_distances_computed;
    dfd_cells_computed += other.dfd_cells_computed;
    bound_rescans += other.bound_rescans;
    return *this;
  }
};

/// See the file comment. Create() validates the options exactly as the
/// from-scratch search would; the metric must outlive the state.
class WindowState {
 public:
  /// `cross` selects the two-trajectory window pair (points appended per
  /// side, searches meaningful once both windows are full).
  static StatusOr<WindowState> Create(const StreamOptions& options,
                                      const GroundMetric& metric, bool cross);

  WindowState(WindowState&&) = default;
  WindowState& operator=(WindowState&&) = default;

  /// Appends one point to side 0 (first trajectory) or 1 (second, cross
  /// mode only): evicts when full, extends the ring matrix with the fresh
  /// ground distances, and advances the slide accounting. `timestamp` may
  /// be null; mixing timestamped and bare appends on one side is an error.
  Status Append(int side, const Point& p, const double* timestamp);

  /// True when the cadence says a search should run now: every side's
  /// window is full, and `slide_step` appends (across both sides) arrived
  /// since the last search — or no search ran yet.
  bool SearchDue() const;

  /// The seeded (or cold) relaxed subset search over the current window,
  /// bit-identical to the from-scratch baseline (see "Exactness" in the
  /// file comment). `pool` (optional) parallelizes it; results are
  /// bit-identical either way. Callers normally gate on SearchDue(), but
  /// any moment with a full window is valid — a deferred search simply
  /// covers a larger slide (the threshold carry checks eviction itself).
  StatusOr<StreamUpdate> RunSearch(ThreadPool* pool);

  /// The current contents of window `side` (0, or 1 for a cross pair's
  /// second trajectory), with timestamps when pushed, in window-relative
  /// order — exactly the trajectory a from-scratch FindMotif parity check
  /// should run on.
  Trajectory WindowTrajectory(int side) const;
  Index window_size(int side) const {
    return static_cast<Index>(sides_[side].points.size());
  }

  /// Appends (across both sides) since the last search — the scheduler's
  /// dirty measure: each append dirties one ring row+column, i.e. O(W)
  /// matrix cells.
  Index appended_since_search() const {
    return sides_[0].appended_since_search + sides_[1].appended_since_search;
  }
  bool searched_once() const { return searched_once_; }

  bool cross() const { return cross_; }
  const StreamOptions& options() const { return options_; }
  const GroundMetric& metric() const { return *metric_; }
  const StreamEngineStats& engine_stats() const { return engine_stats_; }

  /// Test hook (both modes): the relaxed-bound arrays the next search
  /// would use, for equality checks against a fresh RelaxedBounds::Build
  /// over the window. Only meaningful after at least one search.
  RelaxedBounds CurrentBounds() const;

  /// Serializes what of the window state cannot be re-derived — the
  /// window points with their timestamps, the incremental bounds
  /// (values and achievers), the carried optimum and threshold, slide
  /// accounting and engine counters — such that a RestoreFrom'd
  /// instance continues **bit-identically** to this one: every future
  /// report (candidate, distance, seeded/carried flags) and every engine
  /// counter evolves exactly as if the process had never stopped.
  /// Doubles are stored as raw IEEE-754 bit patterns. The ring matrix and
  /// the sphere-vector caches are not stored: they are pure functions of
  /// the points. The options are not stored either; the caller echoes
  /// them (the fleet manifest does, once per member).
  void SaveTo(BinaryWriter* writer) const;

  /// Rebuilds a WindowState from SaveTo's encoding under `options` and
  /// `cross` (as saved by the caller; the thread count is a runtime
  /// choice and may differ — results are bit-identical for every thread
  /// count). The saved points are replayed through Append, which
  /// re-derives every ring cell exactly as ingest computed it, so the
  /// metric must be the one the state was built with. A point that fails
  /// ValidateArrival is DataLoss.
  static StatusOr<WindowState> RestoreFrom(BinaryReader* reader,
                                           const StreamOptions& options,
                                           bool cross,
                                           const GroundMetric& metric);

 private:
  WindowState(const StreamOptions& options, const GroundMetric& metric,
              bool cross);

  MotifOptions SearchMotifOptions() const;

  /// One side's points (side 0 or 1), with timestamps when pushed.
  void SaveSide(BinaryWriter* writer, int side) const;
  /// Reads one SaveSide record and replays its points through Append.
  Status ReplaySide(BinaryReader* reader, int side);

  StreamOptions options_;
  const GroundMetric* metric_;
  bool cross_ = false;
  bool haversine_ = false;

  RingDistanceMatrix ring_;
  IncrementalRelaxedBounds bounds_;

  /// One trajectory's window and its slide accounting. Side 0 is the
  /// window of a single stream or a cross pair's first trajectory (the
  /// ring's rows); side 1 is a cross pair's second trajectory (the ring's
  /// columns) and stays empty for a single stream.
  struct Side {
    std::deque<Point> points;
    /// Sphere vectors of `points` (haversine metric only).
    std::deque<SphereVec> vecs;
    /// Timestamps of `points`, when this side was pushed with them.
    std::deque<double> times;
    bool timestamped = false;
    /// Points ever appended to this side.
    std::int64_t pushed = 0;
    /// Appends since the last search: the side's shift at the next one.
    Index appended_since_search = 0;
  };
  Side sides_[2];
  bool searched_once_ = false;

  /// Previous search's answer, window-relative at that time.
  bool have_previous_ = false;
  Candidate previous_best_;
  double previous_distance_ = std::numeric_limits<double>::infinity();

  /// Append scratch: the paired sphere vectors staged contiguously
  /// (haversine), and the fresh cells the ring copies in (new->k then,
  /// for a non-haversine metric, k->new). Reused across appends (capacity
  /// stabilizes at the window length); never serialized.
  std::vector<SphereVec> batch_vecs_;
  std::vector<double> batch_dists_;

  StreamEngineStats engine_stats_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_WINDOW_STATE_H_
