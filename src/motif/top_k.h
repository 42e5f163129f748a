#ifndef FRECHET_MOTIF_MOTIF_TOP_K_H_
#define FRECHET_MOTIF_MOTIF_TOP_K_H_

/// Top-k motif discovery: the k most similar subtrajectory pairs instead
/// of only the best one, with an optional diversity constraint between
/// results. Most applications only need one of the TopKMotifs() overloads.

#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// Options for top-k motif discovery.
struct TopKOptions {
  /// Shared motif constraints (minimum length ξ, problem variant).
  MotifOptions motif;

  /// Number of motifs to return (>= 1).
  int k = 5;

  /// Diversity control between returned motifs: the start cells (i, j) of
  /// any two results must differ by at least this much in Chebyshev
  /// distance. 1 (default) only requires distinct candidate subsets and
  /// keeps the search exact; larger values spread the results over the
  /// trajectory but make the selection a greedy heuristic (see TopKMotifs).
  Index min_start_separation = 1;

  /// Approximation knob with the per-rank contract: a candidate subset is
  /// skipped once its lower bound times (1+ε) exceeds the running k-th
  /// best subset optimum, and (with min_start_separation == 1) the r-th
  /// reported distance is guaranteed to be at most (1+ε) times the exact
  /// r-th smallest subset optimum, for every rank r. 0 (default) keeps
  /// the search exact and bit-identical. Must be finite and >= 0.
  double approximation_epsilon = 0.0;
};

/// Finds the k most similar subtrajectory pairs, at most one per candidate
/// subset CS(i,j) (each subset is represented by its best pair — otherwise
/// the answer would be k near-duplicates of the single best motif).
///
/// Exactness: with min_start_separation == 1 the result is exactly the k
/// smallest subset optima, found with the same bound-based pruning as BTM
/// against the running k-th best distance. With larger separations the
/// same candidate pool is selected greedily in ascending distance order
/// (skipping conflicts) — the classic motif-set heuristic; results are
/// guaranteed pairwise separated and ascending, but a different
/// equally-separated set with smaller distances may exist.
///
/// Results are sorted ascending by distance; fewer than k are returned
/// when the trajectory does not admit that many. Ties resolve canonically:
/// equal distances are ordered (and, under separation, selected) by
/// CandidateOrderedBefore, the order SearchState::Record uses, so the
/// top-1 result is exactly FindMotif's candidate. `stats` may be null.
StatusOr<std::vector<MotifResult>> TopKMotifs(const DistanceProvider& dist,
                                              const TopKOptions& options,
                                              MotifStats* stats = nullptr);

/// Convenience overload for Problem 1 over a single trajectory.
StatusOr<std::vector<MotifResult>> TopKMotifs(const Trajectory& s,
                                              const GroundMetric& metric,
                                              const TopKOptions& options,
                                              MotifStats* stats = nullptr);

/// Convenience overload for the two-trajectory variant.
StatusOr<std::vector<MotifResult>> TopKMotifs(const Trajectory& s,
                                              const Trajectory& t,
                                              const GroundMetric& metric,
                                              const TopKOptions& options,
                                              MotifStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_TOP_K_H_
