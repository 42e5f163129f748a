#include "geo/metric.h"

#include <cmath>

#include "geo/great_circle.h"

namespace frechet_motif {

double HaversineMetric::Distance(const Point& a, const Point& b) const {
  return GreatCircleDistanceMeters(a, b);
}

double EuclideanMetric::Distance(const Point& a, const Point& b) const {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Status ValidateArrival(const GroundMetric& metric, const Point& p,
                       const double* timestamp) {
  if (!p.IsFinite() || (timestamp != nullptr && !std::isfinite(*timestamp))) {
    return Status::InvalidArgument("non-finite coordinate or timestamp");
  }
  if (dynamic_cast<const HaversineMetric*>(&metric) != nullptr &&
      (std::fabs(p.lat()) > 90.0 || std::fabs(p.lon()) > 180.0)) {
    return Status::InvalidArgument(
        "latitude/longitude out of range (|lat| <= 90, |lon| <= 180)");
  }
  return Status::Ok();
}

const GroundMetric& Haversine() {
  static const HaversineMetric* const kInstance = new HaversineMetric();
  return *kInstance;
}

const GroundMetric& Euclidean() {
  static const EuclideanMetric* const kInstance = new EuclideanMetric();
  return *kInstance;
}

}  // namespace frechet_motif
