#ifndef FRECHET_MOTIF_MOTIF_GTM_H_
#define FRECHET_MOTIF_MOTIF_GTM_H_

/// GTM, the grouping-based trajectory motif algorithm (the paper's
/// Algorithm 3 and its fastest): multi-level grouping of candidate subsets
/// with O(1) pattern bounds and group-level DFD bounds (GLB_DFD/GUB_DFD),
/// halving the group size τ each round until the surviving subsets are
/// processed point-level with Algorithm 2's best-first search. Exact.
/// Most applications should call FindMotif (motif/motif.h) instead of
/// GtmMotif directly.

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// Configuration of the grouping-based trajectory motif algorithm
/// (Algorithm 3).
struct GtmOptions {
  MotifOptions motif;

  /// Initial group size τ (paper default: 32; Figure 17 sweeps 8..128).
  /// Halved every round until it reaches 1. Must be >= 1.
  Index group_size_tau = 32;

  /// Approximation knob (the paper's Section 7 future-work direction),
  /// with the same contract as BtmOptions: every lower-bound prune —
  /// group pattern bounds, GLB_DFD, and the point-level subset queue —
  /// fires as soon as lb·(1+ε) exceeds the threshold, and the returned
  /// distance is guaranteed to be at most (1+ε) times the optimum. A
  /// GUB_DFD tightening contributes gub·(1+ε) instead of gub, which is
  /// what keeps the guarantee: the candidate witnessing the upper bound
  /// satisfies every scaled prune (its bounds never exceed gub), so a
  /// result no worse than gub is always found. 0 (default) keeps GTM
  /// exact and bit-identical to today's output. Must be finite and >= 0.
  double approximation_epsilon = 0.0;
};

/// GTM (Algorithm 3): multi-level grouping. Each round groups the
/// trajectory at the current τ, prunes group pairs with O(1) pattern bounds
/// and with the group DFD bounds GLB_DFD/GUB_DFD (tightening the threshold
/// with the upper bounds), then halves τ and recurses on the surviving
/// pairs. At τ = 1 the surviving candidate subsets are processed with the
/// best-first bounded search of Algorithm 2. Exact: returns the same
/// distance as BruteDpMotif.
StatusOr<MotifResult> GtmMotif(const DistanceProvider& dist,
                               const GtmOptions& options,
                               MotifStats* stats = nullptr);

/// Convenience overload: precomputes the dG matrix for `s` and solves
/// Problem 1.
StatusOr<MotifResult> GtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const GtmOptions& options,
                               MotifStats* stats = nullptr);

/// Convenience overload for the two-trajectory variant.
StatusOr<MotifResult> GtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const GtmOptions& options,
                               MotifStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_GTM_H_
