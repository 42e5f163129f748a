#ifndef FRECHET_MOTIF_JOIN_INCREMENTAL_JOIN_H_
#define FRECHET_MOTIF_JOIN_INCREMENTAL_JOIN_H_

/// Incrementally maintained DFD ε-self-join over mutating trajectory
/// snapshots, with per-update **join deltas**.
///
/// The batch joins (similarity_join.h) recompute every pair from
/// scratch; under sliding windows almost nothing changes per slide — one
/// window's snapshot is replaced, every other pair's verdict is exactly
/// what it was. IncrementalDfdJoin keeps:
///
///  * a mutable `GridIndex` over member bounding boxes, updated in place
///    as windows drift (`GridIndex::Update` touches only the grid cells
///    the box enters or leaves);
///  * a **verdict cache**: the set of currently matching pairs. A pair
///    whose two members were untouched since the last Tick keeps its
///    cached verdict — trajectories identical, verdict identical — so a
///    Tick re-runs the pruning cascade only for pairs with at least one
///    *dirty* (updated) member.
///
/// `Tick()` returns the delta — pairs entering and leaving ε — and its
/// accumulation is provably identical to a from-scratch `DfdSelfJoin`
/// over the current snapshots: per-pair verdicts are computed by the
/// same `ResolveJoinCandidate` cascade on the same inputs, clean pairs
/// cannot change by definition, and a previously matching pair whose
/// partner left the dirty member's grid neighborhood is evicted without
/// verification (outside the expanded query box, every point pair
/// exceeds the coordinate margin, hence DFD > ε). `CurrentMatches()`
/// exposes the accumulated set for exactly that parity check.
///
/// Determinism: deltas are sorted by (li, ri); verdicts are pure
/// functions of the snapshots. The grid cell size is fixed at the first
/// Update (from the threshold's coordinate margin); later latitude
/// growth only widens the query margin — cell size affects candidate
/// counts, never correctness.
///
/// `JoinOptions::threshold` is ε; `use_pruning`/`hausdorff_samples`
/// configure the cascade as in the batch join. `use_grid_index` and
/// `threads` are ignored: the incremental join always uses its grid and
/// verifies serially (pair counts per Tick are small by design).

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/trajectory.h"
#include "geo/metric.h"
#include "join/grid_index.h"
#include "join/similarity_join.h"
#include "similarity/frechet.h"
#include "util/binary_codec.h"
#include "util/status.h"

namespace frechet_motif {

/// Pairs that crossed the ε boundary in one Tick, sorted by (li, ri)
/// with li < ri.
struct JoinDelta {
  std::vector<JoinPair> entered;
  std::vector<JoinPair> left;

  bool empty() const { return entered.empty() && left.empty(); }
};

/// Cumulative counters of the incremental join.
struct IncrementalJoinStats {
  std::int64_t ticks = 0;
  /// Pairs re-verified through the cascade (>= one dirty member).
  std::int64_t pairs_reverified = 0;
  /// Matching pairs carried from the verdict cache without re-running the
  /// cascade (both members clean) — the work a from-scratch join repays
  /// every slide.
  std::int64_t verdicts_carried = 0;
  /// Previously matching pairs evicted by the grid alone (partner left
  /// the dirty member's neighborhood; no cascade needed).
  std::int64_t evicted_by_grid = 0;
  std::int64_t entered_total = 0;
  std::int64_t left_total = 0;
  /// The pruning-cascade counters aggregated over all re-verifications.
  JoinStats cascade;
};

class IncrementalDfdJoin {
 public:
  /// Validates the options (ValidateDfdThreshold: a finite threshold
  /// >= 0). The metric must outlive the join.
  static StatusOr<IncrementalDfdJoin> Create(const JoinOptions& options,
                                             const GroundMetric& metric);

  IncrementalDfdJoin(IncrementalDfdJoin&&) = default;
  IncrementalDfdJoin& operator=(IncrementalDfdJoin&&) = default;

  /// Registers or replaces member `id`'s trajectory snapshot and marks it
  /// dirty for the next Tick. Ids are caller-chosen (the fleet uses
  /// stream ids). The trajectory must be non-empty.
  Status Update(std::size_t id, Trajectory trajectory);

  /// Unregisters `id`. Its current matches are reported as `left` by the
  /// next Tick.
  Status Remove(std::size_t id);

  /// Re-verifies every pair with at least one dirty member and returns
  /// the resulting delta, accumulating it into CurrentMatches().
  StatusOr<JoinDelta> Tick();

  /// The accumulated match set — provably equal to a from-scratch
  /// DfdSelfJoin over the current snapshots (see the file comment).
  /// Sorted by (li, ri), li < ri.
  std::vector<JoinPair> CurrentMatches() const;

  std::size_t member_count() const { return members_.size(); }
  const IncrementalJoinStats& stats() const { return stats_; }
  const JoinOptions& options() const { return options_; }

  /// Serializes the verdict-cache epoch: member snapshots, the match
  /// adjacency, dirty/pending sets, margins, the frozen grid cell size,
  /// and the counters. A LoadFrom'd join produces bit-identical future
  /// deltas: verdicts are pure functions of the (restored) snapshots,
  /// and a restored match set means no pair spuriously re-enters.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores SaveTo's encoding into this join, which must have been
  /// freshly Create'd with the same options and metric. The grid is
  /// rebuilt with the saved (frozen) cell size; members are re-inserted
  /// in id order — candidate *sets* are what correctness and the
  /// counters depend on, and those are order-independent.
  Status LoadFrom(BinaryReader* reader);

 private:
  IncrementalDfdJoin(const JoinOptions& options, const GroundMetric& metric);

  /// A member's snapshot, its decision vectors (computed once per
  /// Update or LoadFrom, never serialized) and its bounding box.
  struct Member {
    Trajectory trajectory;
    std::vector<SphereVec> vecs;
    BoundingBox box;

    DfdOperand operand() const { return DfdOperand::Of(trajectory, vecs); }
  };

  /// Stores `id`'s member record (the grid is the caller's) and computes
  /// its vectors.
  void SetMember(std::size_t id, Trajectory trajectory,
                 const BoundingBox& box);

  JoinOptions options_;
  /// The cell test of every verdict: the metric's kind and the threshold,
  /// resolved once.
  DfdDecision decision_;

  std::unordered_map<std::size_t, Member> members_;
  /// Lazily created at the first Update (cell size needs a margin, the
  /// margin needs a latitude).
  GridIndex grid_;
  bool grid_ready_ = false;
  /// Current sound coordinate margin; only ever grows (with the largest
  /// |latitude| seen), so query expansion stays conservative.
  double margin_ = 0.0;
  double abs_lat_max_ = 0.0;

  /// Dirty members awaiting a Tick, and matches stranded by Remove.
  std::set<std::size_t> dirty_;
  std::vector<JoinPair> pending_left_;

  /// The verdict cache: adjacency of the current match set.
  std::map<std::size_t, std::set<std::size_t>> matches_;
  std::int64_t matched_count_ = 0;

  FrechetScratch scratch_;
  IncrementalJoinStats stats_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_JOIN_INCREMENTAL_JOIN_H_
