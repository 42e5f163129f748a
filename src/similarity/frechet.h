#ifndef FRECHET_MOTIF_SIMILARITY_FRECHET_H_
#define FRECHET_MOTIF_SIMILARITY_FRECHET_H_

/// Discrete Fréchet distance (DFD) kernels — the computational heart of
/// the library. The paper's d_F (Section 2, Eiter & Mannila 1994) comes in
/// four forms: the exact whole-trajectory distance, the subtrajectory-range
/// DP with a threshold early-exit contract (what every motif algorithm
/// calls), the boolean decision kernel the join/clustering use, and the
/// coupling backtrack for visualization. All kernels accept an optional
/// FrechetScratch so steady-state evaluations allocate nothing; see
/// docs/PERFORMANCE.md for the monomorphization and early-exit design.

#include <limits>
#include <vector>

#include "core/distance_matrix.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "util/status.h"

namespace frechet_motif {

/// Reusable DP buffers for the Fréchet kernels. Every kernel resizes the
/// buffers it needs on demand and never shrinks them, so a scratch object
/// held across calls (one per thread) makes all DP evaluations
/// allocation-free after warm-up. Default-constructed scratch is valid.
struct FrechetScratch {
  /// Rolling DP row of the exact kernels.
  std::vector<double> row;

  /// Second rolling row for the subset-search DP (EvaluateSubset).
  std::vector<double> prev;

  /// EvaluateSubset's row-view buffer: the ground-distance row a provider
  /// fills when it cannot serve the span from its own storage.
  std::vector<double> dist_row;

  /// Reachability row of the decision kernel (DiscreteFrechetAtMost).
  std::vector<char> reach;
};

/// Sentinel "no threshold": with this value the kernels never early-exit
/// and always return the exact DFD.
inline constexpr double kNoFrechetThreshold =
    std::numeric_limits<double>::infinity();

/// Discrete Fréchet distance (DFD) between two whole trajectories under the
/// given ground metric — the paper's d_F, also known as the coupling or
/// "dog-man" distance (Eiter & Mannila 1994).
///
/// Runs the standard O(ℓa·ℓb)-time dynamic program with O(min(ℓa,ℓb)) space.
/// Returns InvalidArgument when either trajectory is empty.
/// `scratch` (optional) makes the call allocation-free.
StatusOr<double> DiscreteFrechet(const Trajectory& a, const Trajectory& b,
                                 const GroundMetric& metric,
                                 FrechetScratch* scratch = nullptr);

/// DFD of the candidate subtrajectory pair (rows i..ie, columns j..je) over
/// a ground-distance provider. Indices must satisfy
/// 0 <= i <= ie < dist.rows() and 0 <= j <= je < dist.cols(); violations
/// return InvalidArgument.
///
/// This is the exactness oracle: every motif algorithm's answer is verified
/// against it in the tests.
///
/// Threshold contract (early exit): when the returned value is <=
/// `threshold` it is the exact DFD. When it exceeds `threshold` it is only
/// guaranteed to be a *lower bound* on the DFD that itself exceeds the
/// threshold — the DP abandons as soon as an entire frontier row proves the
/// final value above the threshold (every monotone path crosses each row,
/// so the frontier minimum lower-bounds the result). Callers that prune on
/// "DFD > threshold" therefore lose nothing. Pass kNoFrechetThreshold
/// (default) for the always-exact behavior.
///
/// When `dist` is a DistanceMatrix the call dispatches to the
/// monomorphized overload below; otherwise it runs the generic
/// virtual-dispatch kernel.
StatusOr<double> DiscreteFrechetOnRange(
    const DistanceProvider& dist, Index i, Index ie, Index j, Index je,
    double threshold = kNoFrechetThreshold, FrechetScratch* scratch = nullptr);

/// Monomorphized fast path over the materialized matrix: the inner loop
/// reads ground distances with row-major pointer arithmetic (no virtual
/// dispatch), which is what makes BruteDP/BTM/GTM hot loops fast. Same
/// contract as the provider overload; results are bit-identical.
StatusOr<double> DiscreteFrechetOnRange(
    const DistanceMatrix& dist, Index i, Index ie, Index j, Index je,
    double threshold = kNoFrechetThreshold, FrechetScratch* scratch = nullptr);

/// Reference generic kernel: always pays one virtual DistanceProvider call
/// per DP cell, even for a DistanceMatrix. Exists so benchmarks and parity
/// tests can compare the monomorphized path against the PR-1 baseline.
StatusOr<double> DiscreteFrechetOnRangeGeneric(
    const DistanceProvider& dist, Index i, Index ie, Index j, Index je,
    double threshold = kNoFrechetThreshold, FrechetScratch* scratch = nullptr);

/// Computes the full dF matrix for the pair (a, b): entry (p, q) holds the
/// DFD between prefixes a[0..p] and b[0..q] (the path-in-matrix view of the
/// paper's Observation 1). Row-major, size ℓa x ℓb. Intended for tests,
/// visualization and teaching; costs O(ℓa·ℓb) memory.
StatusOr<std::vector<double>> DiscreteFrechetMatrix(const Trajectory& a,
                                                    const Trajectory& b,
                                                    const GroundMetric& metric);

/// Decision version: is DFD(a, b) <= `threshold`?
///
/// Runs the same dynamic program but treats every cell whose ground
/// distance exceeds the threshold as unreachable and abandons as soon as a
/// whole frontier row is unreachable — typically far faster than the exact
/// computation for negative answers. This is the kernel a DFD similarity
/// join needs (the paper's Section 7 outlook). O(ℓa·ℓb) worst case,
/// O(min) space. `scratch` (optional) makes the call allocation-free.
StatusOr<bool> DiscreteFrechetAtMost(const Trajectory& a, const Trajectory& b,
                                     const GroundMetric& metric,
                                     double threshold,
                                     FrechetScratch* scratch = nullptr);

/// The one rule for a DFD decision threshold, shared by every caller
/// that takes one from a user (joins, the incremental join, clustering,
/// the fleet join): it must be finite and non-negative. NaN would make
/// every comparison false and match nothing; +∞ would match everything
/// without a grid, and nothing through a grid's margin arithmetic.
/// `name` is the option's name, used in the error message.
Status ValidateDfdThreshold(double threshold, const char* name);

/// One aligned step of a coupling: point ap of the first trajectory is
/// matched with point bq of the second.
struct CouplingStep {
  Index ap = 0;
  Index bq = 0;

  friend bool operator==(const CouplingStep& x, const CouplingStep& y) {
    return x.ap == y.ap && x.bq == y.bq;
  }
};

/// An optimal coupling: the monotone point alignment realizing the DFD
/// (the gray-cell path of the paper's Figure 6).
struct Coupling {
  /// The DFD value — the largest ground distance along `steps`.
  double distance = 0.0;

  /// Alignment from (0,0) to (ℓa-1, ℓb-1); each step advances ap, bq or
  /// both by one.
  std::vector<CouplingStep> steps;
};

/// Computes DFD together with an optimal coupling by backtracking through
/// the full dF matrix. O(ℓa·ℓb) time and memory. Useful for visualizing
/// *why* two subtrajectories match (e.g. rendering the leash).
StatusOr<Coupling> DiscreteFrechetCoupling(const Trajectory& a,
                                           const Trajectory& b,
                                           const GroundMetric& metric);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_SIMILARITY_FRECHET_H_
