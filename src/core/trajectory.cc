#include "core/trajectory.h"

#include <cmath>
#include <utility>

namespace frechet_motif {

Trajectory::Trajectory(std::vector<Point> points)
    : points_(std::move(points)) {}

Trajectory::Trajectory(std::vector<Point> points,
                       std::vector<double> timestamps)
    : points_(std::move(points)), timestamps_(std::move(timestamps)) {}

StatusOr<Trajectory> Trajectory::Create(std::vector<Point> points,
                                        std::vector<double> timestamps) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].IsFinite()) {
      return Status::InvalidArgument("non-finite coordinate at point " +
                                     std::to_string(i));
    }
  }
  if (!timestamps.empty()) {
    if (timestamps.size() != points.size()) {
      return Status::InvalidArgument(
          "timestamp count (" + std::to_string(timestamps.size()) +
          ") does not match point count (" + std::to_string(points.size()) +
          ")");
    }
    for (std::size_t i = 0; i < timestamps.size(); ++i) {
      if (!std::isfinite(timestamps[i])) {
        return Status::InvalidArgument("non-finite timestamp at point " +
                                       std::to_string(i));
      }
    }
    for (std::size_t i = 1; i < timestamps.size(); ++i) {
      if (!(timestamps[i] > timestamps[i - 1])) {
        return Status::InvalidArgument(
            "timestamps must be strictly ascending; violated at index " +
            std::to_string(i));
      }
    }
  }
  return Trajectory(std::move(points), std::move(timestamps));
}

void Trajectory::Append(const Point& p) {
  points_.push_back(p);
  // A trajectory either has a timestamp for every point or for none;
  // appending without a timestamp to a timestamped trajectory drops them.
  timestamps_.clear();
}

void Trajectory::Append(const Point& p, double timestamp) {
  if (!timestamps_.empty() || points_.empty()) {
    points_.push_back(p);
    timestamps_.push_back(timestamp);
  } else {
    // Existing points lack timestamps; stay timestamp-free.
    points_.push_back(p);
  }
}

Trajectory Trajectory::Slice(Index first, Index last) const {
  std::vector<Point> pts(points_.begin() + first, points_.begin() + last + 1);
  std::vector<double> ts;
  if (has_timestamps()) {
    ts.assign(timestamps_.begin() + first, timestamps_.begin() + last + 1);
  }
  return Trajectory(std::move(pts), std::move(ts));
}

void Trajectory::Concatenate(const Trajectory& other) {
  if (other.empty()) return;
  const bool keep_timestamps =
      (empty() || has_timestamps()) && other.has_timestamps();
  if (keep_timestamps) {
    // Shift other's clock so that it starts strictly after our last sample.
    double shift = 0.0;
    if (!timestamps_.empty()) {
      const double gap = 1.0;  // one second between concatenated recordings
      shift = timestamps_.back() + gap - other.timestamp(0);
    }
    for (Index i = 0; i < other.size(); ++i) {
      points_.push_back(other[i]);
      timestamps_.push_back(other.timestamp(i) + shift);
    }
  } else {
    timestamps_.clear();
    points_.insert(points_.end(), other.points().begin(),
                   other.points().end());
  }
}

std::ostream& operator<<(std::ostream& os, const SubtrajectoryRef& ref) {
  return os << "S[" << ref.first << ".." << ref.last << "]";
}

}  // namespace frechet_motif
