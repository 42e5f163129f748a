#ifndef FRECHET_MOTIF_CORE_TRAJECTORY_H_
#define FRECHET_MOTIF_CORE_TRAJECTORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.h"
#include "util/status.h"

namespace frechet_motif {

/// Index into a trajectory's point sequence.
using Index = std::int32_t;

/// A spatial trajectory: a sequence of points with optional ascending
/// timestamps (paper Definition 1). Timestamps may be non-uniform; they are
/// carried for analysis/reporting and for the non-overlap semantics of the
/// motif definition, but the similarity computations themselves are purely
/// order-based (that tolerance to sampling-rate variation is exactly why the
/// paper picks DFD).
class Trajectory {
 public:
  /// Empty trajectory.
  Trajectory() = default;

  /// Builds a trajectory without timestamps.
  explicit Trajectory(std::vector<Point> points);

  /// Builds a trajectory with one timestamp (seconds since epoch) per point.
  /// Prefer FromPointsAndTimes, which validates.
  Trajectory(std::vector<Point> points, std::vector<double> timestamps);

  /// Validating factory: checks that all coordinates are finite and that
  /// timestamps (when provided) match the point count, are finite, and
  /// ascend strictly.
  static StatusOr<Trajectory> Create(std::vector<Point> points,
                                     std::vector<double> timestamps = {});

  /// Number of points `n`.
  Index size() const { return static_cast<Index>(points_.size()); }
  bool empty() const { return points_.empty(); }

  /// The i-th point; i must be in [0, size()).
  const Point& operator[](Index i) const { return points_[i]; }

  /// All points.
  const std::vector<Point>& points() const { return points_; }

  /// True iff per-point timestamps are present.
  bool has_timestamps() const { return !timestamps_.empty(); }

  /// Timestamp of point i (seconds). Only valid when has_timestamps().
  double timestamp(Index i) const { return timestamps_[i]; }

  /// All timestamps (empty when absent).
  const std::vector<double>& timestamps() const { return timestamps_; }

  /// Appends a point (and timestamp when this trajectory carries them).
  void Append(const Point& p);
  void Append(const Point& p, double timestamp);

  /// Returns the contiguous subtrajectory S[first..last] (inclusive),
  /// copying points and timestamps. Indices must satisfy
  /// 0 <= first <= last < size().
  Trajectory Slice(Index first, Index last) const;

  /// Concatenates `other` onto this trajectory. When both carry timestamps,
  /// other's timestamps are shifted so the sequence remains ascending
  /// (mirrors the paper's "concatenate raw trajectories to build longer
  /// trajectories"). When either lacks timestamps, the result drops them.
  void Concatenate(const Trajectory& other);

 private:
  std::vector<Point> points_;
  std::vector<double> timestamps_;
};

/// A half-open reference to a subtrajectory S[first..last] of a trajectory
/// owned elsewhere; cheap to copy. Used in results.
struct SubtrajectoryRef {
  Index first = 0;
  Index last = 0;

  /// Number of points in the referenced range.
  Index length() const { return last - first + 1; }

  friend bool operator==(const SubtrajectoryRef& a, const SubtrajectoryRef& b) {
    return a.first == b.first && a.last == b.last;
  }
};

std::ostream& operator<<(std::ostream& os, const SubtrajectoryRef& ref);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_CORE_TRAJECTORY_H_
