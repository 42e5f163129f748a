#ifndef FRECHET_MOTIF_SIMILARITY_FRECHET_H_
#define FRECHET_MOTIF_SIMILARITY_FRECHET_H_

/// Discrete Fréchet distance (DFD) kernels — the computational heart of
/// the library. The paper's d_F (Section 2, Eiter & Mannila 1994) comes in
/// four forms: the exact whole-trajectory distance, the subtrajectory-range
/// DP with a threshold early-exit contract (what every motif algorithm
/// calls), the boolean ε-decision the join/clustering use (DfdDecision,
/// DiscreteFrechetAtMost), and the coupling backtrack for visualization.
/// All kernels accept an optional FrechetScratch so steady-state
/// evaluations allocate nothing; see docs/PERFORMANCE.md for the
/// monomorphization, early-exit and ε-decision design.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/distance_matrix.h"
#include "core/trajectory.h"
#include "geo/great_circle.h"
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

  /// Reachability row of the ε-decision, 64 columns per word
  /// (DfdDecision::AtMost).
  std::vector<std::uint64_t> reach;

  /// Unit vectors of a one-shot decision (DiscreteFrechetAtMost's
  /// DfdDecision::Vectorize of its two trajectories).
  std::vector<SphereVec> vecs_a;
  std::vector<SphereVec> vecs_b;
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

/// The ground metrics the ε-decision evaluates in closed form; any other
/// metric is called through GroundMetric::Distance.
enum class MetricKind { kHaversine, kEuclidean, kOther };

/// One operand of an ε-decision: `size` points and, under the haversine
/// metric, their unit vectors (DfdDecision::Vectorize; null otherwise).
/// Every DfdDecision call under haversine reads `vecs`. A view: it owns
/// nothing, and both arrays must outlive it.
struct DfdOperand {
  const Point* points = nullptr;
  const SphereVec* vecs = nullptr;
  Index size = 0;

  /// `t` with the vectors DfdDecision::Vectorize made of it.
  static DfdOperand Of(const Trajectory& t, const std::vector<SphereVec>& vecs);

  /// Points [first, first + count) of this operand.
  DfdOperand Slice(Index first, Index count) const;
};

/// The ε-decision: is a ground distance, or the DFD of two trajectories,
/// at most θ? One object per (metric, θ) serves every cell test of the
/// join cascade (endpoints, sampled Hausdorff, the exact decision) and of
/// clustering, so the metric's kind and the threshold test are resolved
/// once rather than per pair or per cell.
///
/// Cell test. dG grows with a squared quantity s that needs no
/// trigonometry: the squared chord |ua − ub|² of the two unit vectors
/// under haversine (dG = 2R·asin(√s / 2)), and dx² + dy² under Euclidean
/// (dG = √s). Setup computes s* = (2·sin(θ / 2R))² (haversine) or θ²
/// (Euclidean) and a guard band [lo, hi] = s*·(1 ∓ 1e-9). A cell with
/// s < lo is within θ and one with s > hi is not; only a cell inside the
/// band evaluates its exact distance (SphereVecDistanceMeters, which is
/// bit-identical to HaversineMetric::Distance, or metric.Distance) and
/// compares that. Outside the band the true distance is at least ~5e-10
/// relatively away from θ (dG's relative growth is at least half of s's:
/// d ln dG / d ln s ≥ 1/2), while the computed distance is within a few
/// ulps of the true one; so every verdict equals `metric.Distance(a, b)
/// <= θ` bit for bit, without assuming libm's asin is monotone. For
/// θ ≥ 3R (half-angle past 1.5 rad) the band's top is +∞, so every cell
/// beyond the 3R chord takes the exact path; tiny thresholds (s* below
/// 1e-280, subnormal territory) get an absolute band instead. A NaN
/// coordinate gives NaN s, which is in neither region and never within,
/// as with the exact comparison.
///
/// Other metrics take the exact path, metric.Distance(a, b) <= θ, on
/// every cell.
class DfdDecision {
 public:
  /// Resolves `metric`'s kind and the threshold test. The metric must
  /// outlive the decision. A negative or NaN θ makes no cell within.
  DfdDecision(const GroundMetric& metric, double threshold);

  MetricKind kind() const { return kind_; }

  /// The per-trajectory cache the cell test reads: the unit vector of
  /// every point of `t` under haversine; cleared under any other metric.
  void Vectorize(const Trajectory& t, std::vector<SphereVec>* out) const;

  /// metric.Distance(a[p], b[q]) <= θ.
  bool Within(const DfdOperand& a, Index p, const DfdOperand& b,
              Index q) const;

  /// Whether some point of `b` is within θ of a[p].
  bool AnyWithin(const DfdOperand& a, Index p, const DfdOperand& b) const;

  /// DFD(a, b) <= θ, for non-empty operands.
  ///
  /// Reachability DP, 64 columns per word. Cell (p, q) is reachable when
  /// it is within θ and one of (p−1, q), (p−1, q−1), (p, q−1) is. Let F
  /// be row p's within-θ bits and S = F & (R' | R' << 1) the cells the
  /// row above (R') reaches directly. Then R = F & (((F + S) ^ F) | S):
  /// adding a seed bit carries it through the rest of its run of free
  /// cells, so the XOR marks every cell from the seed to the run's end
  /// (the "| S" restores a seed bit that the carry of a lower seed in the
  /// same run left unchanged). The addition carries across words. Row 0
  /// seeds only column 0. A row tests only the columns a seed can sit on
  /// (leftmost to rightmost + 1 of the row above; no path moves left),
  /// then extends its last run while its cells stay free; an all-zero
  /// row abandons. The corner cells (0, 0) and (ℓa−1, ℓb−1), which every
  /// coupling starts and ends on, are tested first.
  bool AtMost(const DfdOperand& a, const DfdOperand& b,
              FrechetScratch* scratch) const;

 private:
  /// Calls fn(cells) with the cell-test object of this kind for (a, b).
  template <typename Fn>
  auto WithCells(const DfdOperand& a, const DfdOperand& b, Fn&& fn) const;

  const GroundMetric* metric_;
  MetricKind kind_;
  double threshold_;
  /// The guard band on s (unused for MetricKind::kOther).
  double lo_;
  double hi_;
};

/// Decision version: is DFD(a, b) <= `threshold`?
///
/// DfdDecision::AtMost over `a` and `b`, each vectorized once into
/// `scratch` (DfdDecision::Vectorize): verdicts equal the per-cell test
/// `metric.Distance(a[p], b[q]) <= threshold` on every cell, and the DP
/// abandons as soon as a whole row is unreachable — typically far
/// faster than the exact computation for negative answers. Callers that
/// decide many pairs (the joins, clustering) hold one DfdDecision and
/// each trajectory's vectors instead. O(ℓa·ℓb) worst case, O(ℓb) space.
/// `scratch` (optional) makes the call allocation-free.
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
