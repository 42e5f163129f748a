#ifndef FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_
#define FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "core/trajectory.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "util/status.h"

namespace frechet_motif {

/// The batch boundary check: ValidateArrival (geo/metric.h) over every
/// point of `t`. Every batch entry point that reads points runs it before
/// computing a distance — DistanceMatrix::Build, GTM*'s trajectory
/// overloads, the DFD similarity joins and subtrajectory clustering.
Status ValidatePoints(const Trajectory& t, const GroundMetric& metric);

/// Read access to the ground-distance matrix dG[i][j] between point i of a
/// "row" trajectory and point j of a "column" trajectory.
///
/// For the single-trajectory motif problem both roles are played by the same
/// trajectory; for the two-trajectory variant they differ. Algorithms are
/// written against this interface so that the precomputed matrix (BruteDP,
/// BTM, GTM — the paper's O(n^2)-space design) and the on-the-fly evaluation
/// (GTM*, Idea (i) of Section 5.5) are interchangeable.
class DistanceProvider {
 public:
  virtual ~DistanceProvider() = default;

  /// dG between row point i and column point j.
  virtual double Distance(Index i, Index j) const = 0;

  /// The row view: a pointer to dG(r, c0 .. c0+count-1), count >= 1, with
  /// every value bit-identical to Distance(r, c0+q). A provider returns its
  /// own storage when the span is contiguous there, and otherwise fills
  /// `buf` (which must hold `count` values) and returns it. The pointer is
  /// valid until the provider changes or `buf` is reused. This default
  /// fills `buf` through Distance().
  virtual const double* RowSpan(Index r, Index c0, Index count,
                                double* buf) const {
    for (Index q = 0; q < count; ++q) buf[q] = Distance(r, c0 + q);
    return buf;
  }

  /// Number of row points (n).
  virtual Index rows() const = 0;

  /// Number of column points (m; equals rows() for the single-trajectory
  /// problem).
  virtual Index cols() const = 0;

  /// Bytes of memory retained by this provider (for Figure 19 accounting).
  virtual std::size_t MemoryBytes() const = 0;
};

/// Fully materialized dG matrix — the paper's "precompute all pairs of
/// ground distances and store them in matrix dG[·][·]" optimization.
class DistanceMatrix final : public DistanceProvider {
 public:
  /// Precomputes dG over all pairs of `s` (rows) and `t` (columns) points.
  /// Returns InvalidArgument when either trajectory is empty or a point
  /// fails ValidateArrival (off the globe under haversine).
  static StatusOr<DistanceMatrix> Build(const Trajectory& s,
                                        const Trajectory& t,
                                        const GroundMetric& metric);

  /// Self-distance matrix for the single-trajectory problem.
  static StatusOr<DistanceMatrix> Build(const Trajectory& s,
                                        const GroundMetric& metric);

  /// Wraps an explicit matrix (row-major, `rows x cols`). Used by tests to
  /// reproduce the paper's worked examples (e.g. Figure 5). Returns
  /// InvalidArgument when the data size does not equal rows*cols or either
  /// dimension is zero.
  static StatusOr<DistanceMatrix> FromValues(Index rows, Index cols,
                                             std::vector<double> values);

  double Distance(Index i, Index j) const override {
    return values_[static_cast<std::size_t>(i) * cols_ + j];
  }

  /// Contiguous row-major span of row i: Row(i)[j] == Distance(i, j) for
  /// j in [0, cols()). This is the devirtualized access path the
  /// monomorphized DFD kernels walk with plain pointer arithmetic.
  const double* Row(Index i) const {
    return values_.data() + static_cast<std::size_t>(i) * cols_;
  }

  /// Always the matrix's own storage; `buf` is never written.
  const double* RowSpan(Index r, Index c0, Index, double*) const override {
    return Row(r) + c0;
  }

  Index rows() const override { return rows_; }
  Index cols() const override { return cols_; }
  std::size_t MemoryBytes() const override {
    return values_.capacity() * sizeof(double);
  }

 private:
  DistanceMatrix(Index rows, Index cols, std::vector<double> values)
      : rows_(rows), cols_(cols), values_(std::move(values)) {}

  Index rows_;
  Index cols_;
  std::vector<double> values_;
};

/// Computes ground distances on demand from the trajectories — GTM*'s
/// Idea (i), and the row producer DistanceMatrix::Build fills through.
/// Under HaversineMetric it caches each point's unit vector once (O(n+m)
/// memory), so a cell costs one sqrt + asin instead of six trigonometric
/// calls and a row is one SphereVecDistanceBatch call; the values are
/// bit-identical to metric.Distance (GreatCircleDistanceMeters is defined
/// as exactly this computation). A self-matrix (`&s == &t`) keeps one
/// array for both roles. Any other metric is evaluated per cell with O(1)
/// memory.
class OnTheFlyDistance final : public DistanceProvider {
 public:
  /// Both trajectories and the metric must outlive this provider.
  OnTheFlyDistance(const Trajectory& s, const Trajectory& t,
                   const GroundMetric& metric);

  /// Single-trajectory form.
  OnTheFlyDistance(const Trajectory& s, const GroundMetric& metric)
      : OnTheFlyDistance(s, s, metric) {}

  // The column view may point into this object's own row array.
  OnTheFlyDistance(const OnTheFlyDistance&) = delete;
  OnTheFlyDistance& operator=(const OnTheFlyDistance&) = delete;

  double Distance(Index i, Index j) const override {
    return haversine_ ? SphereVecDistanceMeters(rows_vec_[i], cols_[j])
                      : metric_.Distance(s_[i], t_[j]);
  }

  /// Always fills `buf` and returns it, which is how DistanceMatrix::Build
  /// fills its storage in place.
  const double* RowSpan(Index r, Index c0, Index count,
                        double* buf) const override;

  Index rows() const override { return s_.size(); }
  Index cols() const override { return t_.size(); }
  std::size_t MemoryBytes() const override {
    return (rows_vec_.capacity() + cols_vec_.capacity()) * sizeof(SphereVec);
  }

 private:
  const Trajectory& s_;
  const Trajectory& t_;
  const GroundMetric& metric_;
  bool haversine_;
  // The haversine unit-vector caches; empty for any other metric.
  // cols_vec_ also stays empty for a self-matrix, whose cols_ is
  // rows_vec_'s data.
  std::vector<SphereVec> rows_vec_;
  std::vector<SphereVec> cols_vec_;
  const SphereVec* cols_ = nullptr;
};

/// Bounded sliding-window ground-distance matrix whose storage is reused
/// as a ring buffer: appending a point writes one fresh row (and, for the
/// self-matrix of the single-trajectory problem, one column) of ground
/// distances, and evicting the oldest point is O(1) head advancement —
/// surviving cells are never recomputed and the buffer is never
/// reallocated. Logical index (i, j) maps to physical slot
/// ((i + row_head) mod row_capacity, (j + col_head) mod col_capacity), so
/// algorithms see an ordinary DistanceProvider over the current window.
///
/// This is the incremental-matrix API behind the streaming WindowState
/// (src/stream/): a window slide costs O(s·W) metric evaluations instead
/// of the O(W²) a from-scratch DistanceMatrix::Build pays. Cells are
/// bit-identical to Build's because the caller computes them with the
/// same metric on the same points — so every motif algorithm returns
/// identical results over either provider.
///
/// A logical row is at most two contiguous physical segments, split at the
/// column seam: RowSpan returns the storage itself when the requested span
/// stays on one side of the seam and copies the two segments into the
/// caller's buffer when it crosses it.
class RingDistanceMatrix final : public DistanceProvider {
 public:
  /// A fixed-capacity rows x cols buffer; both capacities must be >= 1.
  RingDistanceMatrix(Index row_capacity, Index col_capacity);

  double Distance(Index i, Index j) const override {
    return values_[static_cast<std::size_t>(PhysicalRow(i)) * col_capacity_ +
                   PhysicalCol(j)];
  }
  const double* RowSpan(Index r, Index c0, Index count,
                        double* buf) const override;
  Index rows() const override { return row_size_; }
  Index cols() const override { return col_size_; }
  std::size_t MemoryBytes() const override {
    return values_.capacity() * sizeof(double);
  }

  Index row_capacity() const { return row_capacity_; }
  Index col_capacity() const { return col_capacity_; }

  /// Appends a logical row at index rows(), evicting logical row 0 first
  /// when at capacity. The caller computes the fresh cells into a
  /// contiguous buffer (e.g. with SphereVecDistanceBatch) and the ring
  /// copies them in contiguous segments: `values[j]` for j in
  /// [0, cols()) is the ground distance between the new row point and
  /// column point j.
  void AppendRow(const double* values);

  /// Column counterpart of AppendRow (strided stores): `values[i]` for
  /// i in [0, rows()) is the distance between row point i and the new
  /// column point.
  void AppendCol(const double* values);

  /// Self-matrix form (square capacities, rows() == cols()): appends one
  /// point as the last row *and* last column in a single step, evicting
  /// the oldest point from both dimensions when full. `new_to_k[k]` /
  /// `k_to_new[k]` for k in [0, rows()) fill the new row (new point is
  /// the row point) / column, and `self_distance` the diagonal cell. The
  /// split keeps asymmetric metrics honest; pass the same buffer twice
  /// for a symmetric one.
  void AppendPoint(const double* new_to_k, const double* k_to_new,
                   double self_distance);

  /// Physical slots of logical row 0 and column 0: cell (i, j) lives at
  /// row (i + row_head) mod row_capacity, column (j + col_head) mod
  /// col_capacity of the row-major buffer.
  Index row_head() const { return row_head_; }
  Index col_head() const { return col_head_; }

 private:
  Index PhysicalRow(Index i) const {
    const Index p = row_head_ + i;
    return p >= row_capacity_ ? p - row_capacity_ : p;
  }
  Index PhysicalCol(Index j) const {
    const Index p = col_head_ + j;
    return p >= col_capacity_ ? p - col_capacity_ : p;
  }
  double* Cell(Index i, Index j) {
    return values_.data() +
           static_cast<std::size_t>(PhysicalRow(i)) * col_capacity_ +
           PhysicalCol(j);
  }

  /// Bulk writes of logical row i / column j from a contiguous buffer of
  /// `count` values, splitting at the ring wrap point.
  void WriteRowFromBuffer(Index i, const double* values, Index count);
  void WriteColFromBuffer(Index j, const double* values, Index count);

  Index row_capacity_;
  Index col_capacity_;
  Index row_head_ = 0;
  Index col_head_ = 0;
  Index row_size_ = 0;
  Index col_size_ = 0;
  std::vector<double> values_;
};

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_CORE_DISTANCE_MATRIX_H_
