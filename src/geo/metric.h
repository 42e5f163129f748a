#ifndef FRECHET_MOTIF_GEO_METRIC_H_
#define FRECHET_MOTIF_GEO_METRIC_H_

#include <memory>
#include <string>

#include "geo/point.h"
#include "util/status.h"

namespace frechet_motif {

/// Pluggable ground distance between two trajectory points.
///
/// The paper defines dG as the great-circle distance but states that any
/// ground distance (e.g. Euclidean) works; every algorithm in this library
/// is parameterized by a GroundMetric.
class GroundMetric {
 public:
  virtual ~GroundMetric() = default;

  /// Distance between `a` and `b` in meters (or the metric's natural unit).
  virtual double Distance(const Point& a, const Point& b) const = 0;

  /// Short identifier for logs and bench tables ("haversine", "euclidean").
  virtual std::string Name() const = 0;
};

/// Great-circle (haversine) distance over latitude/longitude degrees —
/// the paper's dG.
class HaversineMetric final : public GroundMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  std::string Name() const override { return "haversine"; }
};

/// Planar Euclidean distance over (x, y) coordinates.
class EuclideanMetric final : public GroundMetric {
 public:
  double Distance(const Point& a, const Point& b) const override;
  std::string Name() const override { return "euclidean"; }
};

/// Singleton accessors. The returned references are valid for the program's
/// lifetime; metrics are stateless and thread-safe.
const GroundMetric& Haversine();
const GroundMetric& Euclidean();

/// The one point check every path runs before a point may touch any
/// state — stream and fleet ingest, serve rows, and every batch distance
/// matrix: finite coordinates and timestamp, and under the haversine
/// metric a real position (|lat| <= 90, |lon| <= 180). `timestamp` may
/// be null.
Status ValidateArrival(const GroundMetric& metric, const Point& p,
                       const double* timestamp);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_GEO_METRIC_H_
