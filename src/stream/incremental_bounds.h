#ifndef FRECHET_MOTIF_STREAM_INCREMENTAL_BOUNDS_H_
#define FRECHET_MOTIF_STREAM_INCREMENTAL_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "core/distance_matrix.h"
#include "core/trajectory.h"
#include "motif/relaxed_bounds.h"
#include "util/binary_codec.h"
#include "util/status.h"

namespace frechet_motif {

/// Incremental maintenance of the RelaxedBounds component arrays over a
/// sliding window, backed by a RingDistanceMatrix. Both problem variants
/// go through one method, Update(): a cross-trajectory window pair slides
/// its two axes independently (`shift_row` points on the first
/// trajectory, `shift_col` on the second), and a single-trajectory window
/// is the same slide with its one shift passed twice, plus the restricted
/// arrays only that variant has.
///
/// The five component arrays (see motif/relaxed_bounds.h) are prefix or
/// suffix minima of matrix rows/columns. When the window slides, each
/// surviving entry's index range shifts with the window:
///
///  * The prefix-containing minima (`RminFull[j]`, column j+1 over every
///    row; `CminFull[i]`, row i+1 over every column; and the single
///    variant's `Rmin[j]` over rows `[0, j-1]`) can lose their minimizer
///    to eviction. Each entry tracks the index of one achiever
///    ("argmin"); when the achiever survives the shift of the opposing
///    axis the value carries over verbatim, and only when it was evicted
///    is the (rare) O(W) rescan paid. The whole-line minima then take the
///    freshly appended cells into account; on a tie the carried achiever
///    stays.
///  * The single variant's suffix-type minima (`Cmin[i]`, `CminStart[i]`:
///    column ranges `[i+1, W-1]` / `[i+3, W-1]` of row i+1) lose nothing
///    to eviction — the old value at index i+s covers exactly the
///    surviving old columns — so the new value is
///    `min(old value, min over the s new columns)`.
///
/// In cross mode the restricted arrays coincide with the unrestricted
/// ones (RelaxedBounds::Build uses the full index ranges there), so only
/// the whole-line minima are kept, and Snapshot() duplicates them.
///
/// A cold build is the same update with every line fresh. It runs on the
/// first update, on a mode or size change, and when either shift reaches
/// its axis length (nothing survives to carry).
///
/// Values are *bit-identical* to a fresh RelaxedBounds::Build over the
/// same window: a minimum of a set of doubles does not depend on the
/// reduction order, and every carried value is justified by a surviving
/// achiever. The band arrays are rebuilt from the maintained components
/// by Snapshot() (via RelaxedBounds::FromComponents), exactly as Build
/// derives them.
///
/// Cost per slide: O(s·W) reads for the fresh rows/columns, O(W) for the
/// carries, plus O(W) per evicted-achiever rescan (expected O(s·log W)
/// rescans per slide on non-adversarial data).
class IncrementalRelaxedBounds {
 public:
  IncrementalRelaxedBounds() = default;

  /// Brings the arrays up to the window `dg` now holds: `shift_row`
  /// points were evicted/appended on the row side since the last update
  /// and `shift_col` on the column side (a single-trajectory window,
  /// `cross == false`, passes its one shift as both and needs
  /// dg.rows() == dg.cols()). Builds cold when nothing can carry — see
  /// the class comment.
  void Update(const RingDistanceMatrix& dg, bool cross, Index shift_row,
              Index shift_col);

  /// Assembles the RelaxedBounds (including the derived band arrays) the
  /// search consumes. O(W) copies.
  RelaxedBounds Snapshot(Index min_length_xi) const;

  /// Number of achiever-evicted rescans paid so far (engine statistics).
  std::int64_t rescans() const { return rescans_; }

  /// Serializes the complete maintenance state — the mode and window
  /// dimensions, the component arrays, the achiever indices, and the
  /// rescan counter — so a restored instance continues bit-identically:
  /// values carry over verbatim, and future carry-vs-rescan decisions
  /// (which feed the `bound_rescans` engine counter) depend on the
  /// achievers, which are restored exactly rather than recomputed.
  void SaveTo(BinaryWriter* writer) const;

  /// Restores the state written by SaveTo, replacing this instance's.
  Status LoadFrom(BinaryReader* reader);

 private:
  bool cross_ = false;
  Index rows_ = 0;
  Index cols_ = 0;

  std::vector<double> rmin_;
  std::vector<double> rmin_full_;
  std::vector<double> cmin_;
  std::vector<double> cmin_start_;
  std::vector<double> cmin_full_;

  /// Logical row index achieving rmin_[j] / rmin_full_[j] (-1 when the
  /// range is empty), and column index achieving cmin_full_[i]. In cross
  /// mode only the full-range achievers are maintained.
  std::vector<Index> rmin_arg_;
  std::vector<Index> rmin_full_arg_;
  std::vector<Index> cmin_full_arg_;

  std::int64_t rescans_ = 0;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_STREAM_INCREMENTAL_BOUNDS_H_
