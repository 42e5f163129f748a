#include "core/distance_matrix.h"

#include <algorithm>

namespace frechet_motif {

namespace {

std::vector<SphereVec> VectorizePoints(const Trajectory& t) {
  std::vector<SphereVec> out;
  out.reserve(t.size());
  for (Index i = 0; i < t.size(); ++i) out.push_back(ToSphereVec(t[i]));
  return out;
}

}  // namespace

Status ValidatePoints(const Trajectory& t, const GroundMetric& metric) {
  for (const Point& p : t.points()) {
    FM_RETURN_IF_ERROR(ValidateArrival(metric, p, nullptr));
  }
  return Status::Ok();
}

StatusOr<DistanceMatrix> DistanceMatrix::Build(const Trajectory& s,
                                               const Trajectory& t,
                                               const GroundMetric& metric) {
  if (s.empty() || t.empty()) {
    return Status::InvalidArgument(
        "cannot build a distance matrix over an empty trajectory");
  }
  FM_RETURN_IF_ERROR(ValidatePoints(s, metric));
  FM_RETURN_IF_ERROR(ValidatePoints(t, metric));
  const Index n = s.size();
  const Index m = t.size();
  std::vector<double> values(static_cast<std::size_t>(n) * m);
  // Block over columns so a tile of column points stays resident in L1
  // while the rows stream past it; column-major reuse is what a naive
  // row-major fill of a large m misses.
  const OnTheFlyDistance fly(s, t, metric);
  constexpr Index kBlock = 256;
  for (Index j0 = 0; j0 < m; j0 += kBlock) {
    const Index count = std::min<Index>(kBlock, m - j0);
    for (Index i = 0; i < n; ++i) {
      fly.RowSpan(i, j0, count,
                  values.data() + static_cast<std::size_t>(i) * m + j0);
    }
  }
  return DistanceMatrix(n, m, std::move(values));
}

StatusOr<DistanceMatrix> DistanceMatrix::Build(const Trajectory& s,
                                               const GroundMetric& metric) {
  return Build(s, s, metric);
}

StatusOr<DistanceMatrix> DistanceMatrix::FromValues(
    Index rows, Index cols, std::vector<double> values) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  if (values.size() != static_cast<std::size_t>(rows) * cols) {
    return Status::InvalidArgument(
        "matrix data size does not match rows*cols");
  }
  return DistanceMatrix(rows, cols, std::move(values));
}

RingDistanceMatrix::RingDistanceMatrix(Index row_capacity, Index col_capacity)
    : row_capacity_(row_capacity),
      col_capacity_(col_capacity),
      values_(static_cast<std::size_t>(row_capacity) * col_capacity, 0.0) {}

const double* RingDistanceMatrix::RowSpan(Index r, Index c0, Index count,
                                          double* buf) const {
  const double* row = values_.data() +
                      static_cast<std::size_t>(PhysicalRow(r)) * col_capacity_;
  const Index p = PhysicalCol(c0);
  const Index first = col_capacity_ - p;  // slots before the column seam
  if (count <= first) return row + p;
  std::copy(row + p, row + col_capacity_, buf);
  std::copy(row, row + (count - first), buf + first);
  return buf;
}

void RingDistanceMatrix::WriteRowFromBuffer(Index i, const double* values,
                                            Index count) {
  double* row = values_.data() +
                static_cast<std::size_t>(PhysicalRow(i)) * col_capacity_;
  // Logical columns [0, count) occupy physical slots [col_head_, cap) then
  // wrap to [0, ...): two contiguous copies.
  const Index first = std::min(count, col_capacity_ - col_head_);
  std::copy(values, values + first, row + col_head_);
  std::copy(values + first, values + count, row);
}

void RingDistanceMatrix::WriteColFromBuffer(Index j, const double* values,
                                            Index count) {
  double* col = values_.data() + PhysicalCol(j);
  const Index first = std::min(count, row_capacity_ - row_head_);
  for (Index i = 0; i < first; ++i) {
    col[static_cast<std::size_t>(row_head_ + i) * col_capacity_] = values[i];
  }
  for (Index i = first; i < count; ++i) {
    col[static_cast<std::size_t>(i - first) * col_capacity_] = values[i];
  }
}

void RingDistanceMatrix::AppendRow(const double* values) {
  if (row_size_ == row_capacity_) {
    row_head_ = row_head_ + 1 == row_capacity_ ? 0 : row_head_ + 1;
    --row_size_;
  }
  const Index i = row_size_++;
  WriteRowFromBuffer(i, values, col_size_);
}

void RingDistanceMatrix::AppendCol(const double* values) {
  if (col_size_ == col_capacity_) {
    col_head_ = col_head_ + 1 == col_capacity_ ? 0 : col_head_ + 1;
    --col_size_;
  }
  const Index j = col_size_++;
  WriteColFromBuffer(j, values, row_size_);
}

void RingDistanceMatrix::AppendPoint(const double* new_to_k,
                                     const double* k_to_new,
                                     double self_distance) {
  if (row_size_ == row_capacity_) {
    row_head_ = row_head_ + 1 == row_capacity_ ? 0 : row_head_ + 1;
    col_head_ = col_head_ + 1 == col_capacity_ ? 0 : col_head_ + 1;
    --row_size_;
    --col_size_;
  }
  const Index k_new = row_size_;
  ++row_size_;
  ++col_size_;
  WriteRowFromBuffer(k_new, new_to_k, k_new);
  WriteColFromBuffer(k_new, k_to_new, k_new);
  *Cell(k_new, k_new) = self_distance;
}

OnTheFlyDistance::OnTheFlyDistance(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric)
    : s_(s),
      t_(t),
      metric_(metric),
      haversine_(dynamic_cast<const HaversineMetric*>(&metric) != nullptr) {
  if (haversine_) {
    rows_vec_ = VectorizePoints(s);
    cols_vec_ = VectorizePoints(t);
  }
}

const double* OnTheFlyDistance::RowSpan(Index r, Index c0, Index count,
                                        double* buf) const {
  if (haversine_) {
    SphereVecDistanceBatch(rows_vec_[r], cols_vec_.data() + c0,
                           static_cast<std::size_t>(count), buf);
  } else {
    const Point& p = s_[r];
    for (Index q = 0; q < count; ++q) buf[q] = metric_.Distance(p, t_[c0 + q]);
  }
  return buf;
}

}  // namespace frechet_motif
