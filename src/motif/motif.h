#ifndef FRECHET_MOTIF_MOTIF_MOTIF_H_
#define FRECHET_MOTIF_MOTIF_MOTIF_H_

/// Umbrella header and convenience front door for trajectory motif
/// discovery. Most applications only need FindMotif(); the individual
/// algorithm headers remain available for fine-grained control.

#include <string>

#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "motif/brute_dp.h"
#include "motif/btm.h"
#include "motif/gtm.h"
#include "motif/gtm_star.h"
#include "motif/stats.h"
#include "util/status.h"

namespace frechet_motif {

/// The algorithms of the paper, in increasing sophistication.
enum class MotifAlgorithm {
  kBruteDp,  ///< Algorithm 1, the O(n^4) baseline.
  kBtm,      ///< Algorithm 2, bounding-based best-first search.
  kGtm,      ///< Algorithm 3, multi-level grouping (fastest).
  kGtmStar,  ///< Section 5.5, space-efficient grouping.
};

/// Short stable name ("BruteDP", "BTM", "GTM", "GTM*").
std::string AlgorithmName(MotifAlgorithm algorithm);

/// One-stop configuration for FindMotif.
struct FindMotifOptions {
  /// Which algorithm to run. GTM is the paper's fastest; GTM* trades a
  /// little time for O(max{(n/τ)², n}) space on very long trajectories.
  MotifAlgorithm algorithm = MotifAlgorithm::kGtm;

  /// Minimum motif length ξ (paper default 100).
  Index min_length_xi = 100;

  /// Initial group size τ for the grouping algorithms (paper default 32).
  Index group_size_tau = 32;

  /// Worker threads for bound precomputation and subset verification,
  /// forwarded to MotifOptions::threads: 1 (default) is the canonical
  /// serial path, 0 means "all hardware threads". Results are bit-identical
  /// for every setting.
  int threads = 1;

  /// Approximation tolerance ε, forwarded to BTM / GTM / GTM*: the
  /// reported motif distance is at most (1+ε) times the exact optimum,
  /// in exchange for more aggressive bound pruning. 0 (default) keeps
  /// every algorithm exact and bit-identical to its ε-less behaviour.
  /// BruteDP ignores this knob (it evaluates every subset and is always
  /// exact). Must be finite and >= 0.
  double approximation_epsilon = 0.0;
};

/// Finds the motif of `s` (Problem 1): the pair of non-overlapping
/// subtrajectories, each spanning more than ξ index steps, with the
/// smallest discrete Fréchet distance. Exact for every algorithm choice
/// when approximation_epsilon == 0; otherwise within (1+ε) of optimal.
///
/// `stats` may be null.
StatusOr<MotifResult> FindMotif(const Trajectory& s, const GroundMetric& metric,
                                const FindMotifOptions& options,
                                MotifStats* stats = nullptr);

/// Finds the best motif pair between two different trajectories
/// (the cross-trajectory variant of Section 3).
StatusOr<MotifResult> FindMotif(const Trajectory& s, const Trajectory& t,
                                const GroundMetric& metric,
                                const FindMotifOptions& options,
                                MotifStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_MOTIF_H_
