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

/// Haversine fill over cached unit vectors: one O(n+m) trigonometric pass,
/// then each cell costs a dot product + asin. Bit-identical to
/// metric.Distance (GreatCircleDistanceMeters is defined as exactly this
/// two-step computation), so every algorithm sees the same values.
void FillHaversine(const Trajectory& s, const Trajectory& t, Index n, Index m,
                   std::vector<double>* values) {
  const std::vector<SphereVec> sv = VectorizePoints(s);
  const std::vector<SphereVec> tv = VectorizePoints(t);
  // Block over columns so the tv tile stays resident in L1 while the rows
  // stream past it; column-major reuse is what a naive row-major fill of a
  // large m misses.
  constexpr Index kBlock = 256;
  for (Index j0 = 0; j0 < m; j0 += kBlock) {
    const Index j1 = std::min<Index>(j0 + kBlock, m);
    for (Index i = 0; i < n; ++i) {
      double* row = values->data() + static_cast<std::size_t>(i) * m;
      SphereVecDistanceBatch(sv[i], tv.data() + j0,
                             static_cast<std::size_t>(j1 - j0), row + j0);
    }
  }
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
  if (dynamic_cast<const HaversineMetric*>(&metric) != nullptr) {
    FillHaversine(s, t, n, m, &values);
    return DistanceMatrix(n, m, std::move(values));
  }
  constexpr Index kBlock = 256;
  for (Index j0 = 0; j0 < m; j0 += kBlock) {
    const Index j1 = std::min<Index>(j0 + kBlock, m);
    for (Index i = 0; i < n; ++i) {
      const Point& pi = s[i];
      double* row = values.data() + static_cast<std::size_t>(i) * m;
      for (Index j = j0; j < j1; ++j) {
        row[j] = metric.Distance(pi, t[j]);
      }
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

CachedHaversineDistance::CachedHaversineDistance(const Trajectory& s,
                                                 const Trajectory& t)
    : rows_vec_(VectorizePoints(s)), cols_vec_(VectorizePoints(t)) {}

CachedHaversineDistance::CachedHaversineDistance(const Trajectory& s)
    : rows_vec_(VectorizePoints(s)), cols_vec_(rows_vec_) {}

}  // namespace frechet_motif
