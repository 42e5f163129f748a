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

/// Core rolling-row DP over an abstract distance accessor.
/// dist(p, q) must return the ground distance between the p-th point of the
/// first sequence (length la) and the q-th point of the second (length lb).
///
/// This template is the single source of truth for the recurrence; it is
/// instantiated once per accessor so that cheap accessors (the row-major
/// matrix functor below) inline into the loop with no virtual dispatch.
/// The explicit-SIMD matrix kernels below compute bit-identical values
/// (their reassociation is min/max-only, which is exact).
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
  // First row: dF(a[0..0], b[0..q]) = max over the first q+1 ground
  // distances (the dog stands still while the man walks). The running max
  // is carried in a register instead of re-read from row[q-1]. Its
  // frontier minimum is row[0] = d(0,0) <= corner <= threshold, so no
  // exit is possible here.
  double running = dist(0, 0);
  row[0] = running;
  for (Index q = 1; q < lb; ++q) {
    const double d = dist(0, q);
    if (d > running) running = d;
    row[q] = running;
  }
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
      // Plain row: only the recurrence's own dependency chain.
      for (Index q = 1; q < lb; ++q) {
        const double up = row[q];  // dF(p-1, q)
        double best_predecessor = diag < up ? diag : up;
        if (left < best_predecessor) best_predecessor = left;
        const double d = dist(p, q);
        left = d > best_predecessor ? d : best_predecessor;
        row[q] = left;
        diag = up;
      }
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
// Explicit-SIMD row kernels over a row-major matrix block.
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
// prefix scan of (lo, hi) pairs per vector (log2(lanes) shift/min/max
// steps), after which the carry from the previous vector is applied with
// one clamp: result = min(hi, max(lo, carry)). Every operation is a min or
// max of the same operands the scalar kernel combines, just reassociated —
// and min/max reassociation is exact for NaN-free inputs, so the vector
// kernels return bit-identical values to the scalar one (the parity fuzz
// tier asserts exactly that).
//
// The carry and the saved diagonal seed are kept in registers as broadcast
// vectors (lane-3/7 permutes) rather than round-tripped through scalar
// code: the broadcast is the only op on the loop-carried critical path.
// ---------------------------------------------------------------------------

/// SSE2 (always available on x86-64): two lanes, one scan step.
double DfdKernelSse2(Index la, Index lb, const double* base,
                     std::size_t stride, double threshold, double* row) {
  const bool bounded = threshold != kNoFrechetThreshold;
  if (bounded) {
    const double d00 = base[0];
    const double dnn =
        base[static_cast<std::size_t>(la - 1) * stride + (lb - 1)];
    const double corner = d00 > dnn ? d00 : dnn;
    if (corner > threshold) return corner;
  }
  double running = base[0];
  row[0] = running;
  for (Index q = 1; q < lb; ++q) {
    const double d = base[q];
    if (d > running) running = d;
    row[q] = running;
  }
  const Index stride_mask = CheckStride(la) - 1;
  const __m128d vninf = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  const __m128d vpinf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  for (Index p = 1; p < la; ++p) {
    const double* drow = base + static_cast<std::size_t>(p) * stride;
    __m128d saved_b = _mm_set1_pd(row[0]);  // old row[0]: diag for q = 1
    const double carry0 = row[0] > drow[0] ? row[0] : drow[0];
    row[0] = carry0;
    __m128d carry_b = _mm_set1_pd(carry0);
    Index q = 1;
    for (; q + 2 <= lb; q += 2) {
      const __m128d up = _mm_loadu_pd(&row[q]);
      // diag = [saved, up0]
      const __m128d diag = _mm_shuffle_pd(saved_b, up, 0x0);
      const __m128d m = _mm_min_pd(up, diag);
      const __m128d d = _mm_loadu_pd(&drow[q]);
      __m128d lo = d;
      __m128d hi = _mm_max_pd(d, m);
      {
        const __m128d lo_s = _mm_shuffle_pd(vninf, lo, 0x0);
        const __m128d hi_s = _mm_shuffle_pd(vpinf, hi, 0x0);
        const __m128d nlo = _mm_max_pd(lo, lo_s);
        const __m128d nhi = _mm_min_pd(hi, _mm_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      const __m128d result = _mm_min_pd(hi, _mm_max_pd(lo, carry_b));
      _mm_storeu_pd(&row[q], result);
      carry_b = _mm_unpackhi_pd(result, result);
      saved_b = _mm_unpackhi_pd(up, up);
    }
    double diag = _mm_cvtsd_f64(saved_b);
    double left = _mm_cvtsd_f64(carry_b);
    for (; q < lb; ++q) {
      const double up = row[q];
      double best = diag < up ? diag : up;
      if (left < best) best = left;
      const double d = drow[q];
      left = d > best ? d : best;
      row[q] = left;
      diag = up;
    }
    if (bounded && IsCheckpointRow(p, stride_mask)) {
      __m128d acc = vpinf;
      Index r = 0;
      for (; r + 2 <= lb; r += 2) acc = _mm_min_pd(acc, _mm_loadu_pd(&row[r]));
      acc = _mm_min_pd(acc, _mm_unpackhi_pd(acc, acc));
      double frontier_min = _mm_cvtsd_f64(acc);
      for (; r < lb; ++r) {
        if (row[r] < frontier_min) frontier_min = row[r];
      }
      if (frontier_min > threshold) return frontier_min;
    }
  }
  return row[static_cast<std::size_t>(lb) - 1];
}

/// AVX2: four lanes, two scan steps.
__attribute__((target("avx2"))) double DfdKernelAvx2(Index la, Index lb,
                                                     const double* base,
                                                     std::size_t stride,
                                                     double threshold,
                                                     double* row) {
  const bool bounded = threshold != kNoFrechetThreshold;
  if (bounded) {
    const double d00 = base[0];
    const double dnn =
        base[static_cast<std::size_t>(la - 1) * stride + (lb - 1)];
    const double corner = d00 > dnn ? d00 : dnn;
    if (corner > threshold) return corner;
  }
  double running = base[0];
  row[0] = running;
  for (Index q = 1; q < lb; ++q) {
    const double d = base[q];
    if (d > running) running = d;
    row[q] = running;
  }
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
    double diag = _mm256_cvtsd_f64(saved_b);
    double left = _mm256_cvtsd_f64(carry_b);
    for (; q < lb; ++q) {
      const double up = row[q];
      double best = diag < up ? diag : up;
      if (left < best) best = left;
      const double d = drow[q];
      left = d > best ? d : best;
      row[q] = left;
      diag = up;
    }
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

#if defined(FRECHET_MOTIF_WIDE_SIMD)
/// AVX-512 (FRECHET_MOTIF_NATIVE builds only): eight lanes, three scan
/// steps.
__attribute__((target("avx512f"))) double DfdKernelAvx512(Index la, Index lb,
                                                          const double* base,
                                                          std::size_t stride,
                                                          double threshold,
                                                          double* row) {
  const bool bounded = threshold != kNoFrechetThreshold;
  if (bounded) {
    const double d00 = base[0];
    const double dnn =
        base[static_cast<std::size_t>(la - 1) * stride + (lb - 1)];
    const double corner = d00 > dnn ? d00 : dnn;
    if (corner > threshold) return corner;
  }
  double running = base[0];
  row[0] = running;
  for (Index q = 1; q < lb; ++q) {
    const double d = base[q];
    if (d > running) running = d;
    row[q] = running;
  }
  const Index stride_mask = CheckStride(la) - 1;
  const __m512d vninf =
      _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  const __m512d vpinf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512i shift1 = _mm512_set_epi64(6, 5, 4, 3, 2, 1, 0, 0);
  const __m512i shift2 = _mm512_set_epi64(5, 4, 3, 2, 1, 0, 0, 0);
  const __m512i shift4 = _mm512_set_epi64(3, 2, 1, 0, 0, 0, 0, 0);
  const __m512i bcast7 = _mm512_set1_epi64(7);
  for (Index p = 1; p < la; ++p) {
    const double* drow = base + static_cast<std::size_t>(p) * stride;
    __m512d saved_b = _mm512_set1_pd(row[0]);  // old row[0]: diag for q = 1
    const double carry0 = row[0] > drow[0] ? row[0] : drow[0];
    row[0] = carry0;
    __m512d carry_b = _mm512_set1_pd(carry0);
    Index q = 1;
    for (; q + 8 <= lb; q += 8) {
      const __m512d up = _mm512_loadu_pd(&row[q]);
      __m512d diag = _mm512_permutexvar_pd(shift1, up);
      diag = _mm512_mask_mov_pd(diag, 0x1, saved_b);
      const __m512d m = _mm512_min_pd(up, diag);
      const __m512d d = _mm512_loadu_pd(&drow[q]);
      __m512d lo = d;
      __m512d hi = _mm512_max_pd(d, m);
      {  // scan step, shift 1
        __m512d lo_s = _mm512_permutexvar_pd(shift1, lo);
        lo_s = _mm512_mask_mov_pd(lo_s, 0x1, vninf);
        __m512d hi_s = _mm512_permutexvar_pd(shift1, hi);
        hi_s = _mm512_mask_mov_pd(hi_s, 0x1, vpinf);
        const __m512d nlo = _mm512_max_pd(lo, lo_s);
        const __m512d nhi = _mm512_min_pd(hi, _mm512_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      {  // scan step, shift 2
        __m512d lo_s = _mm512_permutexvar_pd(shift2, lo);
        lo_s = _mm512_mask_mov_pd(lo_s, 0x3, vninf);
        __m512d hi_s = _mm512_permutexvar_pd(shift2, hi);
        hi_s = _mm512_mask_mov_pd(hi_s, 0x3, vpinf);
        const __m512d nlo = _mm512_max_pd(lo, lo_s);
        const __m512d nhi = _mm512_min_pd(hi, _mm512_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      {  // scan step, shift 4
        __m512d lo_s = _mm512_permutexvar_pd(shift4, lo);
        lo_s = _mm512_mask_mov_pd(lo_s, 0xF, vninf);
        __m512d hi_s = _mm512_permutexvar_pd(shift4, hi);
        hi_s = _mm512_mask_mov_pd(hi_s, 0xF, vpinf);
        const __m512d nlo = _mm512_max_pd(lo, lo_s);
        const __m512d nhi = _mm512_min_pd(hi, _mm512_max_pd(lo, hi_s));
        lo = nlo;
        hi = nhi;
      }
      const __m512d result = _mm512_min_pd(hi, _mm512_max_pd(lo, carry_b));
      _mm512_storeu_pd(&row[q], result);
      carry_b = _mm512_permutexvar_pd(bcast7, result);
      saved_b = _mm512_permutexvar_pd(bcast7, up);
    }
    double diag = _mm512_cvtsd_f64(saved_b);
    double left = _mm512_cvtsd_f64(carry_b);
    for (; q < lb; ++q) {
      const double up = row[q];
      double best = diag < up ? diag : up;
      if (left < best) best = left;
      const double d = drow[q];
      left = d > best ? d : best;
      row[q] = left;
      diag = up;
    }
    if (bounded && IsCheckpointRow(p, stride_mask)) {
      __m512d acc = vpinf;
      Index r = 0;
      for (; r + 8 <= lb; r += 8) {
        acc = _mm512_min_pd(acc, _mm512_loadu_pd(&row[r]));
      }
      double frontier_min = _mm512_reduce_min_pd(acc);
      for (; r < lb; ++r) {
        if (row[r] < frontier_min) frontier_min = row[r];
      }
      if (frontier_min > threshold) return frontier_min;
    }
  }
  return row[static_cast<std::size_t>(lb) - 1];
}
#endif  // FRECHET_MOTIF_WIDE_SIMD

#endif  // FRECHET_MOTIF_SIMD_X86

/// Runs the widest compiled-and-active matrix kernel. All variants are
/// bit-identical, so the dispatch level is an invisible runtime choice.
double DispatchMatrixKernel(Index la, Index lb, const double* base,
                            std::size_t stride, double threshold,
                            std::vector<double>& row) {
#if defined(FRECHET_MOTIF_SIMD_X86)
  const SimdLevel level = ActiveSimdLevel();
  if (level != SimdLevel::kScalar) {
    if (static_cast<Index>(row.size()) < lb) {
      row.resize(static_cast<std::size_t>(lb));
    }
#if defined(FRECHET_MOTIF_WIDE_SIMD)
    if (level >= SimdLevel::kAvx512) {
      return DfdKernelAvx512(la, lb, base, stride, threshold, row.data());
    }
#endif
    if (level >= SimdLevel::kAvx2) {
      return DfdKernelAvx2(la, lb, base, stride, threshold, row.data());
    }
    return DfdKernelSse2(la, lb, base, stride, threshold, row.data());
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

StatusOr<bool> DiscreteFrechetAtMost(const Trajectory& a, const Trajectory& b,
                                     const GroundMetric& metric,
                                     double threshold,
                                     FrechetScratch* scratch) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument(
        "discrete Fréchet distance of an empty trajectory is undefined");
  }
  if (threshold < 0.0) return false;
  const Index la = a.size();
  const Index lb = b.size();
  FrechetScratch local;
  FrechetScratch& s = scratch != nullptr ? *scratch : local;
  // reach[q]: prefix b[0..q] is reachable with leash <= threshold.
  std::vector<char>& reach = s.reach;
  reach.assign(static_cast<std::size_t>(lb), 0);
  reach[0] = metric.Distance(a[0], b[0]) <= threshold ? 1 : 0;
  for (Index q = 1; q < lb; ++q) {
    reach[q] = (reach[q - 1] != 0 &&
                metric.Distance(a[0], b[q]) <= threshold)
                   ? 1
                   : 0;
  }
  for (Index p = 1; p < la; ++p) {
    char diag = reach[0];  // reach(p-1, 0)
    reach[0] = (reach[0] != 0 && metric.Distance(a[p], b[0]) <= threshold)
                   ? 1
                   : 0;
    bool any = reach[0] != 0;
    for (Index q = 1; q < lb; ++q) {
      const char up = reach[q];
      const char left = reach[q - 1];
      const bool predecessor_ok = up != 0 || left != 0 || diag != 0;
      reach[q] = (predecessor_ok &&
                  metric.Distance(a[p], b[q]) <= threshold)
                     ? 1
                     : 0;
      any = any || reach[q] != 0;
      diag = up;
    }
    // Early abandon: an unreachable frontier can never recover.
    if (!any) return false;
  }
  return reach[static_cast<std::size_t>(lb) - 1] != 0;
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
