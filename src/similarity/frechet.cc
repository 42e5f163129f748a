#include "similarity/frechet.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "util/simd.h"

#if defined(FRECHET_MOTIF_SIMD_X86)
#include <immintrin.h>
#endif

namespace frechet_motif {

namespace {

// ---------------------------------------------------------------------------
// Threshold early-exit schedule, shared by every kernel variant.
//
// After finishing row p, the frontier minimum min_q dF(p, q) lower-bounds
// the final value (every monotone coupling path crosses row p somewhere and
// DP values only grow along a path); once it exceeds the threshold the
// remaining rows cannot matter. Evaluating the bound on *every* row is what
// made the old threshold kernel slower than the plain one at mid sizes
// (the fused bookkeeping taxed every row whether or not an exit ever
// fired), so the bound is now checked on a sparse, size-adaptive schedule:
// every row while p < kDenseCheckRows (cheap exits fire overwhelmingly in
// the first rows), then every CheckStride(la)-th row. Non-checkpoint rows
// run the identical loop as the unbounded kernel.
//
// The schedule MUST be a pure function of (p, la) shared by the scalar,
// generic and SIMD kernels: the first checkpoint whose frontier minimum
// exceeds the threshold determines which lower bound an above-threshold
// call returns, so cross-variant bit-identity (enforced by
// tests/kernel_parity_fuzz_test.cc) requires one schedule.
// ---------------------------------------------------------------------------

constexpr Index kDenseCheckRows = 8;

/// Checkpoint period past the dense prefix: 8 rows up to la = 128, then
/// doubling with la so the bookkeeping stays a vanishing fraction of the
/// DP work. Always a power of two (checkpoint test is a mask test).
inline Index CheckStride(Index la) {
  Index stride = 8;
  while (stride * 16 < la) stride *= 2;
  return stride;
}

inline bool IsCheckpointRow(Index p, Index stride_mask) {
  return p < kDenseCheckRows || (p & stride_mask) == 0;
}

/// O(1) lower bound evaluated before any DP row: every coupling matches
/// both endpoint pairs, so dF >= max(d(0,0), d(la-1,lb-1)). When that
/// already exceeds the threshold the whole DP is skipped. Shared by every
/// bounded kernel variant (same cross-variant identity argument as the
/// checkpoint schedule).
template <typename DistFn>
inline double CornerBound(Index la, Index lb, const DistFn& dist) {
  const double d00 = dist(0, 0);
  const double dnn = dist(la - 1, lb - 1);
  return d00 > dnn ? d00 : dnn;
}

/// First DP row: dF(a[0..0], b[0..q]) = max over the first q+1 ground
/// distances (the dog stands still while the man walks). The running max
/// is carried in a register instead of re-read from row[q-1]. Its
/// frontier minimum is row[0] = d(0,0) <= corner <= threshold, so no
/// exit is possible here.
template <typename DistFn>
inline void FirstRow(Index lb, const DistFn& dist, double* row) {
  double running = dist(0, 0);
  row[0] = running;
  for (Index q = 1; q < lb; ++q) {
    const double d = dist(0, q);
    if (d > running) running = d;
    row[q] = running;
  }
}

/// Row p of the recurrence from column q on, given diag = dF(p-1, q-1)
/// and left = dF(p, q-1): only the recurrence's own dependency chain.
/// The scalar kernel's plain rows and the vector kernel's tail both run
/// this loop.
template <typename DistFn>
inline void RowTail(Index p, Index q, Index lb, const DistFn& dist,
                    double diag, double left, double* row) {
  for (; q < lb; ++q) {
    const double up = row[q];  // dF(p-1, q)
    double best_predecessor = diag < up ? diag : up;
    if (left < best_predecessor) best_predecessor = left;
    const double d = dist(p, q);
    left = d > best_predecessor ? d : best_predecessor;
    row[q] = left;
    diag = up;
  }
}

/// Core rolling-row DP over an abstract distance accessor.
/// dist(p, q) must return the ground distance between the p-th point of the
/// first sequence (length la) and the q-th point of the second (length lb).
///
/// This template is the single source of truth for the recurrence; it is
/// instantiated once per accessor so that cheap accessors (the row-major
/// matrix functor below) inline into the loop with no virtual dispatch.
/// The AVX2 matrix kernel below computes bit-identical values (its
/// reassociation is min/max-only, which is exact).
template <typename DistFn>
double FrechetDpKernel(Index la, Index lb, const DistFn& dist,
                       double threshold, std::vector<double>& row) {
  if (static_cast<Index>(row.size()) < lb) {
    row.resize(static_cast<std::size_t>(lb));
  }
  const bool bounded = threshold != kNoFrechetThreshold;
  if (bounded) {
    const double corner = CornerBound(la, lb, dist);
    if (corner > threshold) return corner;
  }
  FirstRow(lb, dist, row.data());
  const Index stride_mask = CheckStride(la) - 1;
  for (Index p = 1; p < la; ++p) {
    double diag = row[0];  // dF(p-1, 0)
    double left = std::max(row[0], dist(p, 0));
    row[0] = left;
    if (bounded && IsCheckpointRow(p, stride_mask)) {
      // Checkpoint row: fuse the frontier-minimum bookkeeping into the
      // recurrence and abandon when the bound proves the rest moot.
      double frontier_min = left;
      for (Index q = 1; q < lb; ++q) {
        const double up = row[q];  // dF(p-1, q)
        double best_predecessor = diag < up ? diag : up;
        if (left < best_predecessor) best_predecessor = left;
        const double d = dist(p, q);
        left = d > best_predecessor ? d : best_predecessor;
        row[q] = left;
        if (left < frontier_min) frontier_min = left;
        diag = up;
      }
      if (frontier_min > threshold) return frontier_min;
    } else {
      RowTail(p, 1, lb, dist, diag, left, row.data());
    }
  }
  return row[static_cast<std::size_t>(lb) - 1];
}

/// Devirtualized accessor into a row-major matrix block whose (0, 0) cell
/// sits at `base`: pure pointer arithmetic, trivially inlined.
struct MatrixBlockDist {
  const double* base;
  std::size_t stride;
  double operator()(Index p, Index q) const {
    return base[static_cast<std::size_t>(p) * stride +
                static_cast<std::size_t>(q)];
  }
};

#if defined(FRECHET_MOTIF_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 row kernel over a row-major matrix block.
//
// The recurrence row[q] = max(d, min(up, diag, left)) carries `left`
// serially across the row. With m = min(up, diag):
//
//   left' = max(d, min(m, left)) = min(max(d, m), max(d, left))
//         = clamp(left; lo = d, hi = max(d, m))
//
// because max distributes over min. Clamps compose — applying (lo1, hi1)
// then (lo2, hi2) equals one clamp with lo = max(lo1, lo2) and
// hi = min(hi2, max(lo2, hi1)) — so the serial chain becomes an inclusive
// prefix scan of (lo, hi) pairs per four-lane vector (two shift/min/max
// steps), after which the carry from the previous vector is applied with
// one clamp: result = min(hi, max(lo, carry)). Every operation is a min or
// max of the same operands the scalar kernel combines, just reassociated —
// and min/max reassociation is exact for NaN-free inputs, so the vector
// kernel returns bit-identical values to the scalar one (the parity fuzz
// tier asserts exactly that).
//
// The carry and the saved diagonal seed are kept in registers as broadcast
// vectors (lane-3 permutes) rather than round-tripped through scalar
// code: the broadcast is the only op on the loop-carried critical path.
//
// Only the vector row body and the vector frontier minimum live here; the
// corner bound, first row, scalar tail and checkpoint schedule are the
// scalar kernel's default-target helpers, which inline into this
// target("avx2") function (the reverse inlining is not allowed).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double DfdKernelAvx2(Index la, Index lb,
                                                     const double* base,
                                                     std::size_t stride,
                                                     double threshold,
                                                     double* row) {
  const MatrixBlockDist dist{base, stride};
  const bool bounded = threshold != kNoFrechetThreshold;
  if (bounded) {
    const double corner = CornerBound(la, lb, dist);
    if (corner > threshold) return corner;
  }
  FirstRow(lb, dist, row);
  const Index stride_mask = CheckStride(la) - 1;
  const __m256d vninf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256d vpinf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  for (Index p = 1; p < la; ++p) {
    const double* drow = base + static_cast<std::size_t>(p) * stride;
    __m256d saved_b = _mm256_set1_pd(row[0]);  // old row[0]: diag for q = 1
    const double carry0 = row[0] > drow[0] ? row[0] : drow[0];
    row[0] = carry0;
    __m256d carry_b = _mm256_set1_pd(carry0);
    Index q = 1;
    for (; q + 4 <= lb; q += 4) {
      const __m256d up = _mm256_loadu_pd(&row[q]);
      // diag = [saved, up0, up1, up2]
      __m256d diag = _mm256_permute4x64_pd(up, _MM_SHUFFLE(2, 1, 0, 0));
      diag = _mm256_blend_pd(diag, saved_b, 0x1);
      const __m256d m = _mm256_min_pd(up, diag);
      const __m256d d = _mm256_loadu_pd(&drow[q]);
      __m256d lo = d;
      __m256d hi = _mm256_max_pd(d, m);
      {  // scan step, shift 1
        __m256d lo_s = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(2, 1, 0, 0));
        lo_s = _mm256_blend_pd(lo_s, vninf, 0x1);
        __m256d hi_s = _mm256_permute4x64_pd(hi, _MM_SHUFFLE(2, 1, 0, 0));
        hi_s = _mm256_blend_pd(hi_s, vpinf, 0x1);
        const __m256d nlo = _mm256_max_pd(lo, lo_s);
        const __m256d nhi = _mm256_min_pd(hi, _mm256_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      {  // scan step, shift 2
        __m256d lo_s = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(1, 0, 0, 0));
        lo_s = _mm256_blend_pd(lo_s, vninf, 0x3);
        __m256d hi_s = _mm256_permute4x64_pd(hi, _MM_SHUFFLE(1, 0, 0, 0));
        hi_s = _mm256_blend_pd(hi_s, vpinf, 0x3);
        const __m256d nlo = _mm256_max_pd(lo, lo_s);
        const __m256d nhi = _mm256_min_pd(hi, _mm256_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      const __m256d result = _mm256_min_pd(hi, _mm256_max_pd(lo, carry_b));
      _mm256_storeu_pd(&row[q], result);
      carry_b = _mm256_permute4x64_pd(result, 0xFF);
      saved_b = _mm256_permute4x64_pd(up, 0xFF);
    }
    RowTail(p, q, lb, dist, _mm256_cvtsd_f64(saved_b),
            _mm256_cvtsd_f64(carry_b), row);
    if (bounded && IsCheckpointRow(p, stride_mask)) {
      __m256d acc = vpinf;
      Index r = 0;
      for (; r + 4 <= lb; r += 4) {
        acc = _mm256_min_pd(acc, _mm256_loadu_pd(&row[r]));
      }
      __m128d acc128 = _mm_min_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
      acc128 = _mm_min_pd(acc128, _mm_unpackhi_pd(acc128, acc128));
      double frontier_min = _mm_cvtsd_f64(acc128);
      for (; r < lb; ++r) {
        if (row[r] < frontier_min) frontier_min = row[r];
      }
      if (frontier_min > threshold) return frontier_min;
    }
  }
  return row[static_cast<std::size_t>(lb) - 1];
}

#endif  // FRECHET_MOTIF_SIMD_X86

/// Runs the AVX2 kernel when it is compiled, detected and not capped,
/// and the scalar kernel otherwise. Both are bit-identical, so the
/// dispatch level is an invisible runtime choice.
double DispatchMatrixKernel(Index la, Index lb, const double* base,
                            std::size_t stride, double threshold,
                            std::vector<double>& row) {
#if defined(FRECHET_MOTIF_SIMD_X86)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    if (static_cast<Index>(row.size()) < lb) {
      row.resize(static_cast<std::size_t>(lb));
    }
    return DfdKernelAvx2(la, lb, base, stride, threshold, row.data());
  }
#endif
  return FrechetDpKernel(la, lb, MatrixBlockDist{base, stride}, threshold,
                         row);
}

Status ValidateRange(const DistanceProvider& dist, Index i, Index ie, Index j,
                     Index je) {
  if (i < 0 || j < 0 || i > ie || j > je || ie >= dist.rows() ||
      je >= dist.cols()) {
    return Status::InvalidArgument("invalid subtrajectory range");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<double> DiscreteFrechet(const Trajectory& a, const Trajectory& b,
                                 const GroundMetric& metric,
                                 FrechetScratch* scratch) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument(
        "discrete Fréchet distance of an empty trajectory is undefined");
  }
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  return FrechetDpKernel(
      a.size(), b.size(),
      [&](Index p, Index q) { return metric.Distance(a[p], b[q]); },
      kNoFrechetThreshold, s.row);
}

StatusOr<double> DiscreteFrechetOnRange(const DistanceMatrix& dist, Index i,
                                        Index ie, Index j, Index je,
                                        double threshold,
                                        FrechetScratch* scratch) {
  FM_RETURN_IF_ERROR(ValidateRange(dist, i, ie, j, je));
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  return DispatchMatrixKernel(ie - i + 1, je - j + 1, dist.Row(i) + j,
                              static_cast<std::size_t>(dist.cols()), threshold,
                              s.row);
}

StatusOr<double> DiscreteFrechetOnRangeGeneric(const DistanceProvider& dist,
                                               Index i, Index ie, Index j,
                                               Index je, double threshold,
                                               FrechetScratch* scratch) {
  FM_RETURN_IF_ERROR(ValidateRange(dist, i, ie, j, je));
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  return FrechetDpKernel(
      ie - i + 1, je - j + 1,
      [&](Index p, Index q) { return dist.Distance(i + p, j + q); },
      threshold, s.row);
}

StatusOr<double> DiscreteFrechetOnRange(const DistanceProvider& dist, Index i,
                                        Index ie, Index j, Index je,
                                        double threshold,
                                        FrechetScratch* scratch) {
  if (const auto* matrix = dynamic_cast<const DistanceMatrix*>(&dist)) {
    return DiscreteFrechetOnRange(*matrix, i, ie, j, je, threshold, scratch);
  }
  return DiscreteFrechetOnRangeGeneric(dist, i, ie, j, je, threshold, scratch);
}

StatusOr<std::vector<double>> DiscreteFrechetMatrix(
    const Trajectory& a, const Trajectory& b, const GroundMetric& metric) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument(
        "discrete Fréchet matrix of an empty trajectory is undefined");
  }
  const Index la = a.size();
  const Index lb = b.size();
  std::vector<double> df(static_cast<std::size_t>(la) * lb);
  auto at = [&](Index p, Index q) -> double& {
    return df[static_cast<std::size_t>(p) * lb + q];
  };
  at(0, 0) = metric.Distance(a[0], b[0]);
  for (Index q = 1; q < lb; ++q) {
    at(0, q) = std::max(at(0, q - 1), metric.Distance(a[0], b[q]));
  }
  for (Index p = 1; p < la; ++p) {
    at(p, 0) = std::max(at(p - 1, 0), metric.Distance(a[p], b[0]));
    for (Index q = 1; q < lb; ++q) {
      const double best_predecessor =
          std::min({at(p - 1, q), at(p, q - 1), at(p - 1, q - 1)});
      at(p, q) = std::max(metric.Distance(a[p], b[q]), best_predecessor);
    }
  }
  return df;
}

Status ValidateDfdThreshold(double threshold, const char* name) {
  if (!std::isfinite(threshold) || threshold < 0.0) {
    return Status::InvalidArgument(std::string(name) +
                                   " must be finite and non-negative");
  }
  return Status::Ok();
}

namespace {

/// Relative half-width of the guard band around s* (see DfdDecision).
constexpr double kBand = 1e-9;
/// Below this s* may be subnormal, where a relative band means nothing:
/// the band becomes [0, s* + kBandFloor] instead.
constexpr double kBandFloor = 1e-280;
/// Largest haversine half-angle θ / 2R the band is built for: sin still
/// grows steeply there. Past it, every cell beyond the chord of this
/// angle takes the exact path.
constexpr double kMaxHalfAngle = 1.5;

/// The squared quantity dG grows with: the squared chord of two unit
/// vectors, and the squared planar distance. Each evaluates s exactly as
/// SphereVecDistanceMeters / EuclideanMetric::Distance do.
inline double Chord2(const SphereVec& a, const SphereVec& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

inline double Chord2(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

constexpr Index kWordBits = 64;

inline int LowestBit(std::uint64_t word) { return __builtin_ctzll(word); }
inline int HighestBit(std::uint64_t word) {
  return 63 - __builtin_clzll(word);
}

/// Bit q of a reach row.
inline bool Reached(const std::uint64_t* reach, Index q) {
  return ((reach[q / kWordBits] >> (q % kWordBits)) & 1) != 0;
}

/// Cell verdicts of one operand pair under a closed-form metric: the
/// threshold test on Chord2 over `a`/`b` (unit vectors or points), with
/// `exact(p, q)` inside the guard band [lo, hi].
template <typename V, typename Exact>
struct BandCells {
  const V* a;
  const V* b;
  double lo;
  double hi;
  Exact exact;

  bool Within(Index p, Index q) const {
    const double s = Chord2(a[p], b[q]);
    if (s < lo) return true;
    return s <= hi && exact(p, q);
  }

  /// Row p's verdicts on columns [q0, q0 + n), n <= 64, bit i for q0 + i.
  std::uint64_t Word(Index p, Index q0, int n) const {
    const V& u = a[p];
    const V* v = b + q0;
    std::uint64_t within = 0;
    std::uint64_t band = 0;
    for (int i = 0; i < n; ++i) {
      const double s = Chord2(u, v[i]);
      within |= static_cast<std::uint64_t>(s < lo) << i;
      band |= static_cast<std::uint64_t>(s <= hi) << i;
    }
    band &= ~within;
    for (; band != 0; band &= band - 1) {
      const int i = LowestBit(band);
      if (exact(p, q0 + i)) within |= std::uint64_t{1} << i;
    }
    return within;
  }
};

/// The haversine exact path: bit-identical to HaversineMetric::Distance.
struct SphereExact {
  const SphereVec* a;
  const SphereVec* b;
  double threshold;
  bool operator()(Index p, Index q) const {
    return SphereVecDistanceMeters(a[p], b[q]) <= threshold;
  }
};

/// The exact path through the metric: the Euclidean band's fallback, and
/// every cell of a metric the decision has no closed form for.
struct MetricExact {
  const GroundMetric* metric;
  const Point* a;
  const Point* b;
  double threshold;
  bool operator()(Index p, Index q) const {
    return metric->Distance(a[p], b[q]) <= threshold;
  }
};

/// Cell verdicts under any other metric: the exact test on every cell.
struct MetricCells {
  MetricExact exact;

  bool Within(Index p, Index q) const { return exact(p, q); }

  std::uint64_t Word(Index p, Index q0, int n) const {
    std::uint64_t within = 0;
    for (int i = 0; i < n; ++i) {
      within |= static_cast<std::uint64_t>(exact(p, q0 + i)) << i;
    }
    return within;
  }
};

/// Advances the reach row in place from row p − 1 (nonzero words
/// [*first, *last]) to row p; see DfdDecision::AtMost for the
/// recurrence. `diagonal` is false for row 0, whose only seed is the
/// virtual cell above (0, 0) that `reach` holds on entry. Only the
/// columns a seed can sit on, [leftmost, rightmost + 1] of the row
/// above, are tested word by word; past them the row can only extend its
/// last run, which is tested as far as it stays free. Returns false when
/// row p reaches nothing.
template <typename Cells>
bool ReachRow(const Cells& cells, Index p, Index lb, bool diagonal,
              std::uint64_t* reach, Index* first, Index* last) {
  const Index from = *first * kWordBits + LowestBit(reach[*first]);
  const Index right = *last * kWordBits + HighestBit(reach[*last]);
  const Index to = std::min(lb, right + (diagonal ? 2 : 1));  // past seeds
  std::uint64_t carry = 0;  // of F + S, into the next word
  std::uint64_t spill = 0;  // bit 63 of the row above, moving diagonally
  Index new_first = -1;
  Index new_last = -1;
  for (Index k = *first; k * kWordBits < to; ++k) {
    const std::uint64_t above = reach[k];
    const Index q0 = std::max(k * kWordBits, from);
    const Index q1 = std::min((k + 1) * kWordBits, to);
    const std::uint64_t free =
        cells.Word(p, q0, static_cast<int>(q1 - q0)) << (q0 - k * kWordBits);
    const std::uint64_t seeds =
        free & (diagonal ? above | (above << 1) | spill : above);
    spill = diagonal ? above >> 63 : 0;
    const std::uint64_t partial = free + seeds;
    const std::uint64_t sum = partial + carry;
    carry = (partial < free || sum < partial) ? 1 : 0;
    const std::uint64_t row = free & ((sum ^ free) | seeds);
    reach[k] = row;
    if (row != 0) {
      if (new_first < 0) new_first = k;
      new_last = k;
    }
  }
  if (new_first < 0) return false;
  // The run through column to − 1 continues while its cells are free.
  Index q = to;
  bool running = Reached(reach, q - 1);
  while (running && q < lb) {
    const Index offset = q % kWordBits;
    const int n = static_cast<int>(std::min(kWordBits - offset, lb - q));
    const std::uint64_t free = cells.Word(p, q, n);
    const int run = ~free == 0 ? n : LowestBit(~free);
    if (run > 0) {
      const std::uint64_t bits =
          run == kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << run) - 1;
      reach[q / kWordBits] |= bits << offset;
      new_last = q / kWordBits;
    }
    running = run == n;
    q += n;
  }
  *first = new_first;
  *last = new_last;
  return true;
}

template <typename Cells>
bool ReachAtMost(const Cells& cells, Index la, Index lb,
                 std::vector<std::uint64_t>& reach) {
  // Every coupling starts and ends on these corners.
  if (!cells.Within(0, 0) || !cells.Within(la - 1, lb - 1)) return false;
  reach.assign(static_cast<std::size_t>((lb + kWordBits - 1) / kWordBits), 0);
  reach[0] = 1;  // row 0's one seed: column 0
  Index first = 0;
  Index last = 0;
  for (Index p = 0; p < la; ++p) {
    if (!ReachRow(cells, p, lb, p > 0, reach.data(), &first, &last)) {
      return false;
    }
  }
  return Reached(reach.data(), lb - 1);
}

}  // namespace

DfdOperand DfdOperand::Of(const Trajectory& t,
                          const std::vector<SphereVec>& vecs) {
  return DfdOperand{t.points().data(), vecs.empty() ? nullptr : vecs.data(),
                    t.size()};
}

DfdOperand DfdOperand::Slice(Index first, Index count) const {
  return DfdOperand{points + first, vecs != nullptr ? vecs + first : nullptr,
                    count};
}

DfdDecision::DfdDecision(const GroundMetric& metric, double threshold)
    : metric_(&metric),
      kind_(dynamic_cast<const HaversineMetric*>(&metric) != nullptr
                ? MetricKind::kHaversine
            : dynamic_cast<const EuclideanMetric*>(&metric) != nullptr
                ? MetricKind::kEuclidean
                : MetricKind::kOther),
      threshold_(threshold),
      lo_(-std::numeric_limits<double>::infinity()),
      hi_(-std::numeric_limits<double>::infinity()) {
  if (!(threshold >= 0.0)) return;  // negative or NaN: nothing is within
  double s_star = threshold * threshold;
  bool capped = false;
  if (kind_ == MetricKind::kHaversine) {
    const double half_angle = threshold / (2.0 * kEarthRadiusMeters);
    capped = !(half_angle < kMaxHalfAngle);
    const double chord = 2.0 * std::sin(capped ? kMaxHalfAngle : half_angle);
    s_star = chord * chord;
  }
  lo_ = s_star >= kBandFloor ? s_star * (1.0 - kBand) : 0.0;
  hi_ = capped ? std::numeric_limits<double>::infinity()
               : s_star * (1.0 + kBand) + kBandFloor;
}

void DfdDecision::Vectorize(const Trajectory& t,
                            std::vector<SphereVec>* out) const {
  out->clear();
  if (kind_ != MetricKind::kHaversine) return;
  out->reserve(static_cast<std::size_t>(t.size()));
  for (const Point& p : t.points()) out->push_back(ToSphereVec(p));
}

template <typename Fn>
auto DfdDecision::WithCells(const DfdOperand& a, const DfdOperand& b,
                            Fn&& fn) const {
  const MetricExact exact{metric_, a.points, b.points, threshold_};
  switch (kind_) {
    case MetricKind::kHaversine:
      return fn(BandCells<SphereVec, SphereExact>{
          a.vecs, b.vecs, lo_, hi_, SphereExact{a.vecs, b.vecs, threshold_}});
    case MetricKind::kEuclidean:
      return fn(BandCells<Point, MetricExact>{a.points, b.points, lo_, hi_,
                                              exact});
    case MetricKind::kOther:
      break;
  }
  return fn(MetricCells{exact});
}

bool DfdDecision::Within(const DfdOperand& a, Index p, const DfdOperand& b,
                         Index q) const {
  return WithCells(a, b, [&](const auto& cells) { return cells.Within(p, q); });
}

bool DfdDecision::AnyWithin(const DfdOperand& a, Index p,
                            const DfdOperand& b) const {
  return WithCells(a, b, [&](const auto& cells) {
    for (Index q0 = 0; q0 < b.size; q0 += kWordBits) {
      const Index n = std::min(kWordBits, b.size - q0);
      if (cells.Word(p, q0, static_cast<int>(n)) != 0) return true;
    }
    return false;
  });
}

bool DfdDecision::AtMost(const DfdOperand& a, const DfdOperand& b,
                         FrechetScratch* scratch) const {
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  return WithCells(a, b, [&](const auto& cells) {
    return ReachAtMost(cells, a.size, b.size, s.reach);
  });
}

StatusOr<bool> DiscreteFrechetAtMost(const Trajectory& a, const Trajectory& b,
                                     const GroundMetric& metric,
                                     double threshold,
                                     FrechetScratch* scratch) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument(
        "discrete Fréchet distance of an empty trajectory is undefined");
  }
  if (threshold < 0.0) return false;
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  const DfdDecision decision(metric, threshold);
  decision.Vectorize(a, &s.vecs_a);
  decision.Vectorize(b, &s.vecs_b);
  return decision.AtMost(DfdOperand::Of(a, s.vecs_a),
                         DfdOperand::Of(b, s.vecs_b), &s);
}

StatusOr<Coupling> DiscreteFrechetCoupling(const Trajectory& a,
                                           const Trajectory& b,
                                           const GroundMetric& metric) {
  StatusOr<std::vector<double>> df = DiscreteFrechetMatrix(a, b, metric);
  if (!df.ok()) return df.status();
  const std::vector<double>& m = df.value();
  const Index la = a.size();
  const Index lb = b.size();
  auto at = [&](Index p, Index q) {
    return m[static_cast<std::size_t>(p) * lb + q];
  };

  Coupling out;
  out.distance = at(la - 1, lb - 1);
  // Backtrack: from (la-1, lb-1) repeatedly move to the predecessor with
  // the smallest dF value (ties broken toward the diagonal for the
  // shortest coupling).
  std::vector<CouplingStep> reversed;
  Index p = la - 1;
  Index q = lb - 1;
  reversed.push_back(CouplingStep{p, q});
  while (p > 0 || q > 0) {
    if (p == 0) {
      --q;
    } else if (q == 0) {
      --p;
    } else {
      const double diag = at(p - 1, q - 1);
      const double up = at(p - 1, q);
      const double left = at(p, q - 1);
      if (diag <= up && diag <= left) {
        --p;
        --q;
      } else if (up <= left) {
        --p;
      } else {
        --q;
      }
    }
    reversed.push_back(CouplingStep{p, q});
  }
  out.steps.assign(reversed.rbegin(), reversed.rend());
  return out;
}

}  // namespace frechet_motif
