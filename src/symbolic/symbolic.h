#ifndef FRECHET_MOTIF_SYMBOLIC_SYMBOLIC_H_
#define FRECHET_MOTIF_SYMBOLIC_SYMBOLIC_H_

/// The symbolic (movement-pattern-string) motif baseline the paper
/// dismisses in Section 2: trajectories become strings over a five-letter
/// movement alphabet and motifs become repeated substrings. Fast, but
/// blind to spatial distance — kept as the comparison subject for
/// Figure 4 (tests and `bench_paper --figure=4` demonstrate the failure
/// mode).

#include <string>

#include "core/trajectory.h"
#include "util/status.h"

namespace frechet_motif {

/// The symbolic motif-discovery baseline the paper dismisses in Section 2
/// (Figure 4): trajectories are partitioned into fragments, each fragment
/// is mapped to a pre-defined movement-pattern symbol, and motifs are found
/// by substring matching on the resulting string. The approach is fast but
/// cannot capture spatial distance — two trajectories in different cities
/// can map to the same string — which this module exists to demonstrate
/// (tests and `bench_paper --figure=4`).
///
/// Symbol alphabet, following Figure 4(a):
///   'V' vertical long straight    (heading within tolerance of north/south)
///   'H' horizontal long straight  (heading within tolerance of east/west)
///   'L' left turn                 (heading change <= -turn threshold)
///   'R' right turn                (heading change >= +turn threshold)
///   'D' diagonal straight         (anything else that moves)
struct SymbolizerOptions {
  /// Points per fragment (>= 2). Each fragment contributes one symbol.
  Index fragment_length = 8;

  /// Heading change (radians) between consecutive fragments above which
  /// the fragment is classified as a turn.
  double turn_threshold_rad = 0.6;

  /// Tolerance (radians) around the cardinal axes for V/H classification.
  double axis_tolerance_rad = 0.35;
};

/// Converts a trajectory to its movement-pattern string. Returns
/// InvalidArgument when the trajectory has fewer than 2*fragment_length
/// points or the options are degenerate.
StatusOr<std::string> SymbolizeTrajectory(const Trajectory& t,
                                          const SymbolizerOptions& options);

/// A symbolic motif: the longest pair of identical non-overlapping
/// substrings of the symbol string, reported as fragment index ranges.
struct SymbolicMotif {
  /// Matched substring (movement-pattern word, e.g. "RVLH").
  std::string word;

  /// Fragment index of each occurrence (occurrence length = word.size()).
  Index first_fragment = 0;
  Index second_fragment = 0;

  /// Point ranges covered by the two occurrences.
  SubtrajectoryRef first_points;
  SubtrajectoryRef second_points;
};

/// Finds the longest repeated non-overlapping substring of `symbols` by
/// binary search over the match length with rolling-hash candidate
/// generation and exact verification — O(L log L) expected. Requires at
/// least `min_length` symbols per occurrence; returns NotFound when no
/// repeat of that length exists.
StatusOr<SymbolicMotif> SymbolicMotifDiscovery(const Trajectory& t,
                                               const SymbolizerOptions& options,
                                               Index min_length);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_SYMBOLIC_SYMBOLIC_H_
