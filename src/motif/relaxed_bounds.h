#ifndef FRECHET_MOTIF_MOTIF_RELAXED_BOUNDS_H_
#define FRECHET_MOTIF_MOTIF_RELAXED_BOUNDS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "util/thread_pool.h"

namespace frechet_motif {

/// Relaxed lower bounds of Section 4.3.
///
/// One O(n·m) precomputation pass produces four arrays; afterwards every
/// bound query is O(1) — the amortized-O(1) property the paper relies on:
///
///  * `Rmin[j]`  = min over first-indices c in [0, j-1] (single-trajectory)
///                 or [0, n-1] (cross) of dG(c, j+1); relaxes LB_row(i,j)
///                 for every admissible i (Lemma 2).
///  * `Cmin[i]`  = min over second-indices r in [i+1, m-1] (single) or
///                 [0, m-1] (cross) of dG(i+1, r); relaxes LB_col(i,j).
///  * Band bounds are sliding-window maxima of Rmin/Cmin with window ξ,
///    computed for all positions in O(n+m) total with a monotone deque
///    (the paper quotes O(ξn); same values, just faster to build).
///  * `RminFull`/`CminFull` drop the index restriction entirely
///    (min over the whole row/column). They justify the *global* search-
///    frontier caps of Algorithm 2 lines 12-13: once
///    RminFull[y] exceeds the threshold, no candidate anywhere may end at
///    jc > y, because its path would cross row y+1.
///
/// Out-of-range queries and subsets with no valid candidate yield +infinity,
/// which safely disqualifies them.
class RelaxedBounds {
 public:
  /// Creates an empty instance; all queries are invalid until assigned
  /// from Build().
  RelaxedBounds() = default;

  /// Runs the precomputation pass. O(n·m) distance evaluations,
  /// O(n+m) memory — compatible with GTM*'s on-the-fly provider.
  ///
  /// `pool` (optional) shards the row/column sweeps across its lanes; each
  /// output index is written by exactly one iteration, so the result is
  /// bit-identical to the serial pass.
  static RelaxedBounds Build(const DistanceProvider& dist,
                             const MotifOptions& options,
                             ThreadPool* pool = nullptr);

  /// Assembles an instance from externally maintained component arrays —
  /// the hook for incremental maintainers (the streaming engine keeps the
  /// row/column minima up to date under window eviction instead of
  /// re-running Build). The arrays must hold exactly the values Build
  /// would produce for the same provider and options; the band arrays
  /// are derived here via SlidingWindowMax with window `min_length_xi`,
  /// exactly as Build derives them.
  static RelaxedBounds FromComponents(std::vector<double> rmin,
                                      std::vector<double> cmin,
                                      std::vector<double> cmin_start,
                                      std::vector<double> rmin_full,
                                      std::vector<double> cmin_full,
                                      Index min_length_xi);

  /// Relaxed row bound for any subset with second start index j.
  double Rmin(Index j) const { return rmin_[j]; }

  /// Relaxed column bound valid for *end-cell* queries Cmin(ie): the
  /// crossing row may be as low as j = ie+1 in the single-trajectory
  /// variant, so the scan starts right after the diagonal.
  double Cmin(Index i) const { return cmin_[i]; }

  /// Relaxed column bound valid for *start-cell* and band queries: every
  /// valid subset satisfies j >= i+3 (j >= i+ξ+2 with ξ >= 1), so the
  /// scan can skip the near-diagonal cells whose tiny self-distances would
  /// otherwise drown the bound.
  double CminStart(Index i) const { return cmin_start_[i]; }

  /// Whole-column / whole-row minima (global caps; see class comment).
  double RminFull(Index j) const { return rmin_full_[j]; }
  double CminFull(Index i) const { return cmin_full_[i]; }

  /// rLB_cross^start(i,j) (Equation 12).
  double StartCross(Index i, Index j) const {
    return CminStart(i) > Rmin(j) ? CminStart(i) : Rmin(j);
  }

  /// rLB_cross^end(ie,je) (Equation 13): valid for candidates ending
  /// strictly beyond (ie, je) in both dimensions.
  double EndCross(Index ie, Index je) const {
    return Cmin(ie) > Rmin(je) ? Cmin(ie) : Rmin(je);
  }

  /// rLB_band^row(j) (Equation 14).
  double BandRow(Index j) const { return band_row_[j]; }

  /// rLB_band^col(i) (Equation 15).
  double BandCol(Index i) const { return band_col_[i]; }

  /// The combined relaxed bound of candidate subset CS(i,j), the key every
  /// subset queue is ordered by: max(LB_cell = dG(i,j), rLB_cross^start,
  /// rLB_band^row, rLB_band^col).
  double SubsetLb(const DistanceProvider& dist, Index i, Index j) const {
    return std::max({dist.Distance(i, j), StartCross(i, j), BandRow(j),
                     BandCol(i)});
  }

  /// Bytes held by the four arrays (Figure 19 accounting).
  std::size_t MemoryBytes() const;

 private:
  std::vector<double> rmin_;
  std::vector<double> cmin_;
  std::vector<double> cmin_start_;
  std::vector<double> rmin_full_;
  std::vector<double> cmin_full_;
  std::vector<double> band_row_;
  std::vector<double> band_col_;
};

/// Sliding-window maximum: out[k] = max(values[k .. k+window-1]), +infinity
/// where the window does not fit. Exposed for testing. O(values.size()).
std::vector<double> SlidingWindowMax(const std::vector<double>& values,
                                     Index window);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_RELAXED_BOUNDS_H_
