#ifndef FRECHET_MOTIF_JOIN_SIMILARITY_JOIN_H_
#define FRECHET_MOTIF_JOIN_SIMILARITY_JOIN_H_

/// Similarity join between trajectory collections under the discrete
/// Fréchet distance (DFD): report every pair within a distance threshold.
/// Most applications only need DfdSimilarityJoin() or DfdSelfJoin(); the
/// JoinOptions knobs expose the pruning cascade for ablation studies.

#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "geo/metric.h"
#include "join/grid_index.h"
#include "similarity/frechet.h"
#include "util/status.h"

namespace frechet_motif {

/// A matching pair produced by the join: trajectories left[li] and
/// right[ri] with DFD <= the join threshold.
struct JoinPair {
  /// Index into the left collection.
  std::size_t li = 0;
  /// Index into the right collection (for a self-join, li < ri).
  std::size_t ri = 0;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.li == b.li && a.ri == b.ri;
  }
};

/// Counters describing how the join's pruning cascade resolved each pair.
struct JoinStats {
  /// Candidate pairs considered (all pairs, or the grid index's output).
  std::int64_t pairs_total = 0;
  /// Disqualified because the bounding boxes are further apart than the
  /// threshold (every ground distance, hence the DFD, exceeds it).
  std::int64_t pruned_bbox = 0;
  /// Disqualified by the endpoint bound: every coupling matches first with
  /// first and last with last, so max(d(a0,b0), d(a_end,b_end)) <= DFD.
  std::int64_t pruned_endpoints = 0;
  /// Disqualified by the sampled one-sided Hausdorff bound: for any point
  /// a_p, min_q d(a_p, b_q) <= DFD (the coupling matches a_p to *some* b_q).
  std::int64_t pruned_hausdorff = 0;
  /// Pairs that reached the O(l^2) early-abandoning decision kernel.
  std::int64_t decided_exact = 0;
  /// Pairs reported as matches.
  std::int64_t matched = 0;

  /// One-line human-readable rendering of the counters, for logs.
  std::string ToString() const;
};

/// Options for the similarity join.
struct JoinOptions {
  /// Match threshold θ (meters): report pairs with DFD <= θ. Must be
  /// finite and >= 0 (ValidateDfdThreshold).
  double threshold = 100.0;

  /// How many points of the left trajectory to probe in the sampled
  /// Hausdorff lower bound (0 disables that stage).
  Index hausdorff_samples = 8;

  /// Disables the cheap bounds, forcing every pair through the exact
  /// decision kernel (for ablation benchmarks).
  bool use_pruning = true;

  /// Generates candidate pairs with a uniform grid over bounding boxes
  /// (see GridIndex) instead of enumerating all pairs — output-sensitive
  /// for spread-out collections. Results are identical; JoinStats then
  /// counts only the generated candidates in pairs_total.
  bool use_grid_index = false;

  /// Worker threads for candidate-pair verification. 1 (default) keeps the
  /// canonical serial path; 0 means "all hardware threads". Candidates are
  /// partitioned statically and per-lane matches are concatenated in lane
  /// order, so the result list is identical for every setting. With
  /// threads > 1 the GroundMetric must be safe for concurrent const
  /// access (the built-in metrics are stateless).
  int threads = 1;
};

/// DFD similarity join (the paper's Section 7 outlook: "other trajectory
/// analysis operations that rely on DFD, such as similarity join"): all
/// pairs (li, ri) with DFD(left[li], right[ri]) <= options.threshold.
///
/// Per pair, a cascade of O(1)/O(l) lower bounds disqualifies most
/// non-matches before the O(l^2) early-abandoning decision kernel
/// (DiscreteFrechetAtMost) resolves the rest — the same
/// bound-then-verify design as the motif algorithms.
///
/// Returns InvalidArgument when either side is empty, any trajectory is
/// empty, or the threshold is negative or non-finite. `stats` may be null.
StatusOr<std::vector<JoinPair>> DfdSimilarityJoin(
    const std::vector<Trajectory>& left, const std::vector<Trajectory>& right,
    const GroundMetric& metric, const JoinOptions& options,
    JoinStats* stats = nullptr);

/// Self-join: all unordered pairs {i, j}, i < j, within one collection.
StatusOr<std::vector<JoinPair>> DfdSelfJoin(
    const std::vector<Trajectory>& trajectories, const GroundMetric& metric,
    const JoinOptions& options, JoinStats* stats = nullptr);

/// Resolves one candidate pair through the join's pruning cascade
/// (bounding-box gap, endpoint bound, sampled Hausdorff bound, then the
/// exact early-abandoning decision). Returns true iff DFD(a, b) <=
/// options.threshold. Every stage after the box gap takes its verdicts
/// from `decision`'s one cell test (DfdDecision over the join's metric
/// and threshold), so each stage prunes exactly the pairs the per-cell
/// `metric.Distance <= threshold` would. This is the single-pair verdict
/// the batch joins apply per candidate, exposed so incremental consumers
/// (IncrementalDfdJoin) produce verdicts bit-identical to a from-scratch
/// join. `stats` may be null; `scratch` (optional) makes the call
/// allocation-free.
bool ResolveJoinCandidate(const DfdDecision& decision, const DfdOperand& a,
                          const BoundingBox& box_a, const DfdOperand& b,
                          const BoundingBox& box_b, const JoinOptions& options,
                          JoinStats* stats, FrechetScratch* scratch);

/// Conservative conversion of the metric threshold θ into coordinate
/// units, for grid cell sizing and query-box expansion: any two points
/// within θ of each other differ by at most this much per coordinate.
/// Euclidean: θ itself. Haversine: θ over the per-degree meter length,
/// with the longitude axis corrected for the worst meridian convergence
/// at `abs_lat_max` degrees (pass the largest |latitude| the data can
/// reach; the margin grows with it, so over-estimating is always safe).
/// Other metrics get an effectively unbounded margin (no filtering).
double JoinCoordinateMargin(MetricKind kind, double threshold,
                            double abs_lat_max);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_JOIN_SIMILARITY_JOIN_H_
