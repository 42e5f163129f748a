#ifndef FRECHET_MOTIF_MOTIF_GTM_STAR_H_
#define FRECHET_MOTIF_MOTIF_GTM_STAR_H_

/// GTM*, the space-efficient motif algorithm (the paper's Section 5.5):
/// trades a little of GTM's speed for O(max{(n/τ)², n}) memory by computing
/// ground distances on the fly, keeping only two DP rows, and running the
/// grouping loop once at a fixed τ. The right choice when the dG matrix of
/// a very long trajectory would not fit in memory (Figure 19). Exact.

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// Configuration of the space-efficient GTM* (Section 5.5).
struct GtmStarOptions {
  MotifOptions motif;

  /// Group size τ. GTM* runs the grouping loop *once* at this size
  /// (Idea iii), so — unlike GTM — it is not halved.
  Index group_size_tau = 32;

  /// Enables end-cell cross pruning in the point-level phase.
  bool use_end_cross = true;

  /// Approximation knob with the same contract as GtmOptions: lower-bound
  /// prunes (pattern, GLB_DFD, per-block subset queue) fire at
  /// lb·(1+ε) > threshold, GUB tightenings contribute gub·(1+ε), and the
  /// returned distance is at most (1+ε) times the optimum. 0 (default)
  /// keeps GTM* exact and bit-identical. Must be finite and >= 0.
  double approximation_epsilon = 0.0;
};

/// GTM*: the space-efficient variant. Incorporates the paper's three ideas:
///  (i)   ground distances are computed on the fly (no dG matrix);
///  (ii)  the shared DFD dynamic program keeps only two rows (O(n) space);
///  (iii) the grouping loop runs exactly once at the given τ, so the only
///        quadratic structure is the (n/τ)² group envelope.
/// Space: O(max{(n/τ)², n}). Exact: returns the same distance as
/// BruteDpMotif.
///
/// The provider-based entry point lets tests drive GTM* over explicit
/// matrices; production use goes through the trajectory overloads, which
/// construct one OnTheFlyDistance (unit vectors cached under haversine,
/// O(n+m)). The subset DP fills one O(m) row of it per DP row into a
/// per-lane buffer, so no O(n²) structure is ever built.
StatusOr<MotifResult> GtmStarMotif(const DistanceProvider& dist,
                                   const GtmStarOptions& options,
                                   MotifStats* stats = nullptr);

/// Problem 1 over a single trajectory (no distance matrix is materialized).
StatusOr<MotifResult> GtmStarMotif(const Trajectory& s,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats = nullptr);

/// Two-trajectory variant.
StatusOr<MotifResult> GtmStarMotif(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_GTM_STAR_H_
