#include "motif/relaxed_bounds.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace frechet_motif {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// min(p[lo .. hi-1]), +infinity for an empty range. Four independent
/// accumulators break the compare chain; min is exact, so the value does
/// not depend on the order.
double RangeMin(const double* p, Index lo, Index hi) {
  double a = kInf;
  double b = kInf;
  double c = kInf;
  double d = kInf;
  Index k = lo;
  for (; k + 4 <= hi; k += 4) {
    a = std::min(a, p[k]);
    b = std::min(b, p[k + 1]);
    c = std::min(c, p[k + 2]);
    d = std::min(d, p[k + 3]);
  }
  for (; k < hi; ++k) a = std::min(a, p[k]);
  return std::min(std::min(a, b), std::min(c, d));
}

}  // namespace

std::vector<double> SlidingWindowMax(const std::vector<double>& values,
                                     Index window) {
  const Index n = static_cast<Index>(values.size());
  std::vector<double> out(values.size(), kInf);
  if (window <= 0 || window > n) return out;
  // Monotone deque of indices with decreasing values.
  std::deque<Index> dq;
  for (Index k = 0; k < n; ++k) {
    while (!dq.empty() && values[dq.back()] <= values[k]) dq.pop_back();
    dq.push_back(k);
    const Index start = k - window + 1;
    if (start >= 0) {
      if (dq.front() < start) dq.pop_front();
      out[start] = values[dq.front()];
    }
  }
  return out;
}

RelaxedBounds RelaxedBounds::Build(const DistanceProvider& dist,
                                   const MotifOptions& options,
                                   ThreadPool* pool) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  const bool single = options.variant == MotifVariant::kSingleTrajectory;

  RelaxedBounds rb;
  rb.cmin_.assign(n, kInf);
  rb.cmin_full_.assign(n, kInf);
  rb.cmin_start_.assign(n, kInf);

  // Column minima, one set per lane of `stride` values: col_full, then
  // (single mode) col_lead, merged across lanes after the sweep.
  const int lanes = pool != nullptr ? pool->threads() : 1;
  const std::size_t width = static_cast<std::size_t>(m);
  const std::size_t stride = single ? 2 * width : width;
  std::vector<double> cols(stride * lanes, kInf);
  std::vector<double> bufs(width * lanes);

  // One row-major sweep over rows [r_lo, r_hi). Row r = i+1 gives the
  // three Cmin minima of i in one pass over nested suffixes (see header):
  // start-cell and band queries admit columns >= i+3 = r+2, end-cell
  // queries columns >= i+1 = r, CminFull every column. The row also folds
  // into the column minima Rmin reads at j = c-1: `col_full[c]` over every
  // row and, in single mode, `col_lead[c]` over the rows r <= c-2 = j-1,
  // i.e. the row's columns from r+2 on. Each Cmin slot is written by its
  // row alone.
  const auto sweep = [&](int lane, Index r_lo, Index r_hi) {
    double* col_full = cols.data() + stride * lane;
    double* col_lead = col_full + width;  // single mode only
    double* buf = bufs.data() + width * lane;
    for (Index r = r_lo; r < r_hi; ++r) {
      const double* row = dist.RowSpan(r, 0, m, buf);
      for (Index c = 0; c < m; ++c) {
        col_full[c] = std::min(col_full[c], row[c]);
      }
      const Index end_lo = single ? std::min(r, m) : 0;
      const Index start_lo = single ? std::min(r + 2, m) : 0;
      if (single) {
        for (Index c = start_lo; c < m; ++c) {
          col_lead[c] = std::min(col_lead[c], row[c]);
        }
      }
      if (r == 0) continue;
      const double start = RangeMin(row, start_lo, m);
      const double end = std::min(start, RangeMin(row, end_lo, start_lo));
      rb.cmin_start_[r - 1] = start;
      rb.cmin_[r - 1] = end;
      rb.cmin_full_[r - 1] = std::min(end, RangeMin(row, 0, end_lo));
    }
  };
  if (lanes > 1) {
    pool->ParallelFor(n, [&](int lane, std::int64_t lo, std::int64_t hi) {
      sweep(lane, static_cast<Index>(lo), static_cast<Index>(hi));
    });
    for (int lane = 1; lane < lanes; ++lane) {
      const double* other = cols.data() + stride * lane;
      for (std::size_t c = 0; c < stride; ++c) {
        cols[c] = std::min(cols[c], other[c]);
      }
    }
  } else {
    sweep(0, 0, n);
  }

  // Rmin[j] and RminFull[j] read column j+1; the last j has none.
  const double* col_full = cols.data();
  const double* col_lead = single ? col_full + width : col_full;
  rb.rmin_full_.assign(m, kInf);
  rb.rmin_.assign(m, kInf);
  for (Index j = 0; j + 1 < m; ++j) {
    rb.rmin_full_[j] = col_full[j + 1];
    rb.rmin_[j] = col_lead[j + 1];
  }

  rb.band_row_ = SlidingWindowMax(rb.rmin_, options.min_length_xi);
  rb.band_col_ = SlidingWindowMax(rb.cmin_start_, options.min_length_xi);
  return rb;
}

RelaxedBounds RelaxedBounds::FromComponents(std::vector<double> rmin,
                                            std::vector<double> cmin,
                                            std::vector<double> cmin_start,
                                            std::vector<double> rmin_full,
                                            std::vector<double> cmin_full,
                                            Index min_length_xi) {
  RelaxedBounds rb;
  rb.rmin_ = std::move(rmin);
  rb.cmin_ = std::move(cmin);
  rb.cmin_start_ = std::move(cmin_start);
  rb.rmin_full_ = std::move(rmin_full);
  rb.cmin_full_ = std::move(cmin_full);
  rb.band_row_ = SlidingWindowMax(rb.rmin_, min_length_xi);
  rb.band_col_ = SlidingWindowMax(rb.cmin_start_, min_length_xi);
  return rb;
}

std::size_t RelaxedBounds::MemoryBytes() const {
  return (rmin_.capacity() + cmin_.capacity() + cmin_start_.capacity() +
          rmin_full_.capacity() +
          cmin_full_.capacity() + band_row_.capacity() +
          band_col_.capacity()) *
         sizeof(double);
}

}  // namespace frechet_motif
