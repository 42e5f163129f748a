#ifndef FRECHET_MOTIF_STREAM_WINDOW_STATE_H_
#define FRECHET_MOTIF_STREAM_WINDOW_STATE_H_

/// Per-stream sliding-window state: the reusable core of the streaming
/// engines.
///
/// A WindowState owns everything one bounded window needs to answer
/// motif queries incrementally — the ring ground-distance matrix (one
/// fresh row/column per append, O(1) eviction), the incrementally
/// maintained RelaxedBounds minima, the window point/timestamp caches,
/// and the previous optimum carried as the next search's pruning
/// threshold. It deliberately contains **no scheduling policy**: when to
/// run a search is the caller's decision (`StreamingMotifMonitor` runs
/// one the moment `SearchDue()` turns true; `MotifFleetEngine` batches
/// due windows through a `SearchScheduler`). Because a search's answer
/// depends only on the window contents at search time, any caller that
/// runs the search before the next append to this window reproduces the
/// single-monitor behavior bit for bit.
///
/// The exactness contract of `RunSearch()` — bit-identical candidate and
/// distance to a from-scratch `FindMotif` with
/// `StreamOptions::BaselineOptions()` on the identical window — is
/// stated and proved in streaming_motif_monitor.h.

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
  /// Must be >= 0.
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
  /// from-scratch answer (ties included — see the tie-stability contract
  /// in streaming_motif_monitor.h).
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
};

/// The one arrival check every ingest path runs before a point may touch
/// any state: finite coordinates and timestamp, and under the haversine
/// metric a real position (|lat| <= 90, |lon| <= 180). `timestamp` may
/// be null.
Status ValidateArrival(const GroundMetric& metric, const Point& p,
                       const double* timestamp);

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

  /// True when the cadence (window full; `slide_step` appends since the
  /// last search — or no search yet) says a search should run now.
  bool SearchDue() const;

  /// The seeded (or cold) relaxed subset search over the current window.
  /// `pool` (optional) parallelizes it; results are bit-identical either
  /// way. Callers normally gate on SearchDue(), but any moment with a
  /// full window is valid — a deferred search simply covers a larger
  /// slide (the threshold carry checks eviction itself).
  StatusOr<StreamUpdate> RunSearch(ThreadPool* pool);

  /// The current window contents (with timestamps when pushed), in
  /// window-relative order — exactly the trajectory a from-scratch
  /// FindMotif parity check should run on.
  Trajectory WindowTrajectory() const;
  Trajectory SecondWindowTrajectory() const;

  Index window_size() const { return static_cast<Index>(window_.size()); }
  Index second_window_size() const {
    return static_cast<Index>(second_window_.size());
  }
  std::int64_t points_seen() const { return pushed_first_; }

  /// Appends (across both sides) since the last search — the scheduler's
  /// dirty measure: each append dirties one ring row+column, i.e. O(W)
  /// matrix cells.
  Index appended_since_search() const {
    return appended_since_search_first_ + appended_since_search_second_;
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

  /// Serializes the complete window state — ring matrix contents,
  /// incremental bounds (values and achievers), the carried optimum and
  /// threshold, slide accounting and engine counters — such that a
  /// RestoreFrom'd instance continues **bit-identically** to this one:
  /// every future report (candidate, distance, seeded/carried flags)
  /// and every engine counter evolves exactly as if the process had
  /// never stopped. Doubles are stored as raw IEEE-754 bit patterns;
  /// derived caches (sphere vectors) are recomputed deterministically
  /// on restore. The encoding starts with an options echo that
  /// RestoreFrom validates.
  void SaveTo(BinaryWriter* writer) const;

  /// Rebuilds a WindowState from SaveTo's encoding. `options` must
  /// match the saved geometry (window length, slide step, ξ — the
  /// thread count is a runtime choice and may differ; results are
  /// bit-identical for every thread count). The metric must be the same
  /// metric the state was built with — ring cells are restored verbatim
  /// and future appends must extend them consistently.
  static StatusOr<WindowState> RestoreFrom(BinaryReader* reader,
                                           const StreamOptions& options,
                                           const GroundMetric& metric);

 private:
  WindowState(const StreamOptions& options, const GroundMetric& metric,
              bool cross);

  MotifOptions SearchMotifOptions() const;

  StreamOptions options_;
  const GroundMetric* metric_;
  bool cross_ = false;
  bool haversine_ = false;

  RingDistanceMatrix ring_;
  IncrementalRelaxedBounds bounds_;

  std::deque<Point> window_;
  std::deque<Point> second_window_;
  std::deque<SphereVec> vecs_;
  std::deque<SphereVec> second_vecs_;
  std::deque<double> times_;
  std::deque<double> second_times_;
  bool timestamped_ = false;
  bool second_timestamped_ = false;

  std::int64_t pushed_first_ = 0;
  std::int64_t pushed_second_ = 0;
  /// Appends (per side) since the last search, for slide accounting.
  Index appended_since_search_first_ = 0;
  Index appended_since_search_second_ = 0;
  bool searched_once_ = false;

  /// Previous search's answer, window-relative at that time.
  bool have_previous_ = false;
  Candidate previous_best_;
  double previous_distance_ = std::numeric_limits<double>::infinity();

  /// Scratch for the batched haversine append path: the opposite side's
  /// sphere vectors staged contiguously, and the fresh cells computed by
  /// SphereVecDistanceBatch. Reused across appends (capacity stabilizes at
  /// the window length); never serialized.
  std::vector<SphereVec> batch_vecs_;
  std::vector<double> batch_dists_;

  StreamEngineStats engine_stats_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_WINDOW_STATE_H_
