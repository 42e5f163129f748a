#ifndef FRECHET_MOTIF_MOTIF_BRUTE_DP_H_
#define FRECHET_MOTIF_MOTIF_BRUTE_DP_H_

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// BruteDP (Algorithm 1): the O(n^4) baseline. For every candidate subset
/// CS(i,j) it runs one shared dynamic program that yields the DFD of all
/// candidates starting at (i,j), tracking the best pair. No pruning.
///
/// `stats` may be null. Returns InvalidArgument when the input admits no
/// valid candidate (see ValidateMotifInput).
StatusOr<MotifResult> BruteDpMotif(const DistanceProvider& dist,
                                   const MotifOptions& options,
                                   MotifStats* stats = nullptr);

/// Convenience overload: precomputes the dG matrix for `s` (the paper's
/// "store them in matrix dG[·][·]" optimization) and solves Problem 1.
StatusOr<MotifResult> BruteDpMotif(const Trajectory& s,
                                   const GroundMetric& metric,
                                   const MotifOptions& options,
                                   MotifStats* stats = nullptr);

/// Convenience overload for the two-trajectory variant (sets
/// options.variant to kCrossTrajectory, as every other search's
/// two-trajectory overload does).
StatusOr<MotifResult> BruteDpMotif(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric,
                                   const MotifOptions& options,
                                   MotifStats* stats = nullptr);

/// Exactness oracle for tests: enumerates every valid candidate and
/// computes its DFD independently with DiscreteFrechetOnRange — O(n^6),
/// usable only for tiny inputs, but sharing no code path with the
/// algorithms under test.
StatusOr<MotifResult> NaiveMotif(const DistanceProvider& dist,
                                 const MotifOptions& options);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_BRUTE_DP_H_
