#ifndef FRECHET_MOTIF_MOTIF_GROUP_H_
#define FRECHET_MOTIF_MOTIF_GROUP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "motif/stats.h"

namespace frechet_motif {

/// One τ-grouping level (Section 5.1): trajectory points are partitioned
/// into contiguous groups of τ samples, g_u = [uτ, min((u+1)τ-1, n-1)]
/// (the trailing group may be partial), and for every pair of groups the
/// minimum and maximum ground distances are recorded:
///
///   dmin(u,v) = min_{i∈g_u, j∈g_v} dG(i,j),
///   dmax(u,v) = max_{i∈g_u, j∈g_v} dG(i,j)      (Definition 4, Corollary 1)
///
/// On top of the envelopes the class offers the group analogues of the
/// pattern bounds (Section 5.2) and the group-based DFD bounds GLB_DFD /
/// GUB_DFD via dFmin/dFmax dynamic programs (Section 5.3, Definition 5,
/// Lemmas 3-4).
///
/// All bounds use conservative index arithmetic so they stay *safe* for any
/// τ (including τ > ξ+1, where crossing a neighbouring group is no longer
/// guaranteed and the cross/band bounds simply deactivate).
class Grouping {
 public:
  /// Scans the provider once (O(n·m) distance evaluations, O((n/τ)(m/τ))
  /// memory) and precomputes the group-level relaxed pattern-bound arrays.
  /// `tau` must be >= 1.
  static Grouping Build(const DistanceProvider& dist,
                        const MotifOptions& options, Index tau);

  Index tau() const { return tau_; }
  Index num_row_groups() const { return nu_; }
  Index num_col_groups() const { return nv_; }

  /// First/last point index of row group u / column group v.
  Index RowFirst(Index u) const { return u * tau_; }
  Index RowLast(Index u) const {
    const Index last = (u + 1) * tau_ - 1;
    return last < n_ - 1 ? last : n_ - 1;
  }
  Index ColFirst(Index v) const { return v * tau_; }
  Index ColLast(Index v) const {
    const Index last = (v + 1) * tau_ - 1;
    return last < m_ - 1 ? last : m_ - 1;
  }

  /// Ground-distance envelopes.
  double Dmin(Index u, Index v) const {
    return dmin_[static_cast<std::size_t>(u) * nv_ + v];
  }
  double Dmax(Index u, Index v) const {
    return dmax_[static_cast<std::size_t>(u) * nv_ + v];
  }

  /// GLB_cell(u,v) = dmin(u,v) (Equation 18). Always applicable.
  double CellLb(Index u, Index v) const { return Dmin(u, v); }

  /// Relaxed group cross bound (max of group-level Cmin/Rmin); -infinity
  /// when τ > ξ+1 (crossing the next group is not guaranteed).
  double CrossLb(Index u, Index v) const;

  /// Relaxed group band bound (sliding max over the group window
  /// ⌊(ξ+1)/τ⌋); -infinity when the window is empty.
  double BandLb(Index u, Index v) const;

  /// Combined O(1) pattern bound: max(cell, cross, band).
  double PatternLb(Index u, Index v) const;

  /// True iff the block g_u x g_v contains the start cell (i,j) of at least
  /// one valid candidate under the options.
  bool AdmitsCandidate(Index u, Index v) const;

  /// Group-based DFD bounds for start pair (u,v) (Section 5.3):
  /// `*glb` <= dF(i,ie,j,je) for every valid candidate starting in
  /// g_u x g_v, and there exists a valid candidate with dF <= `*gub`
  /// (+infinity when no end-group pair guarantees one). Runs the
  /// dFmin/dFmax dynamic programs over the envelope matrices —
  /// O((n/τ)(m/τ)) per call worst case.
  ///
  /// `threshold` enables the paper's early termination: once an entire
  /// dFmin frontier row exceeds it, no deeper cell can fall below it
  /// (each cell is >= the min of its predecessors), so the scan stops.
  /// The pruning decision `*glb > threshold` is unaffected; `*glb` itself
  /// is only guaranteed exact when no cutoff occurred (e.g. threshold =
  /// +infinity), and `*gub` remains a valid — possibly less tight — upper
  /// bound. Pass +infinity for exact bounds.
  void DfdBounds(Index u, Index v, double threshold, double* glb,
                 double* gub) const;

  /// Bytes held by the envelope matrices and bound arrays.
  std::size_t MemoryBytes() const;

 private:
  Grouping() = default;

  Index tau_ = 1;
  Index n_ = 0;   // row points
  Index m_ = 0;   // column points
  Index nu_ = 0;  // row groups
  Index nv_ = 0;  // column groups
  Index window_ = 0;  // ⌊(ξ+1)/τ⌋, the guaranteed group band width
  MotifOptions options_;
  std::vector<double> dmin_;
  std::vector<double> dmax_;
  std::vector<double> grmin_;      // group-level Rmin
  std::vector<double> gcmin_;      // group-level Cmin
  std::vector<double> gband_row_;  // sliding max of grmin_, window window_
  std::vector<double> gband_col_;  // sliding max of gcmin_, window window_
};

/// One group-pair pruning round at `grouping`'s τ (Algorithm 3 lines
/// 3-13), shared by GTM (one round per level) and GTM* (its single
/// level): queues the pairs that admit a candidate, sorts them by pattern
/// bound, and walks them best-first, tightening `*threshold` with GUB_DFD
/// along the way. Returns the survivors in bound order. `pairs` null
/// means every (u, v) pair of the grouping, row-major.
///
/// `lb_scale` = 1+ε implements the approximate mode: lower-bound prunes
/// fire at lb·(1+ε) > threshold, and a GUB tightening contributes
/// gub·(1+ε) so the candidate witnessing the upper bound (dF <= gub, see
/// Grouping::DfdBounds) can never be ε-pruned — its containing pair's
/// glb <= gub keeps glb·(1+ε) <= gub·(1+ε) <= threshold at every round,
/// which preserves both found-ness and the (1+ε) result guarantee.
///
/// `stats` may be null; the sorted pair list is registered with its
/// memory tracker for the duration of the round.
std::vector<std::pair<Index, Index>> PruneGroupPairs(
    const Grouping& grouping, const std::vector<std::pair<Index, Index>>* pairs,
    double lb_scale, double* threshold, MotifStats* stats);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_GROUP_H_
