#include "join/similarity_join.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "geo/great_circle.h"
#include <functional>

#include "core/distance_matrix.h"
#include "join/grid_index.h"
#include "similarity/frechet.h"
#include "util/thread_pool.h"

namespace frechet_motif {

namespace {

/// Per-axis separation of two intervals (0 when they overlap).
double AxisGap(double lo_a, double hi_a, double lo_b, double hi_b) {
  if (hi_a < lo_b) return lo_b - hi_a;
  if (hi_b < lo_a) return lo_a - hi_b;
  return 0.0;
}

/// A lower bound on the ground distance between any point of box `a` and
/// any point of box `b` — hence on the DFD of the trajectories they
/// enclose. Metric-aware:
///  * Euclidean: the exact closest-point distance sqrt(gx² + gy²).
///  * Haversine (x = latitude deg, y = longitude deg, no date-line wrap):
///    max of two individually valid bounds — the pure-latitude separation
///    R·Δφ_gap, and the longitude separation evaluated with the most
///    meridian-converging latitude of either box,
///    2R·asin(cos φ_max · sin(Δλ_gap/2)). Both only ever under-estimate.
///  * Unknown metrics: 0 (no pruning — always safe).
double BboxGap(const BoundingBox& a, const BoundingBox& b,
               const GroundMetric& metric) {
  const double gx = AxisGap(a.min_x, a.max_x, b.min_x, b.max_x);
  const double gy = AxisGap(a.min_y, a.max_y, b.min_y, b.max_y);
  if (dynamic_cast<const EuclideanMetric*>(&metric) != nullptr) {
    return std::sqrt(gx * gx + gy * gy);
  }
  if (dynamic_cast<const HaversineMetric*>(&metric) != nullptr) {
    const double lat_bound = kEarthRadiusMeters * DegToRad(gx);
    const double abs_lat_max =
        std::max({std::abs(a.min_x), std::abs(a.max_x), std::abs(b.min_x),
                  std::abs(b.max_x)});
    const double dlambda = DegToRad(std::min(gy, 180.0));
    const double lon_bound =
        2.0 * kEarthRadiusMeters *
        std::asin(std::clamp(
            std::cos(DegToRad(abs_lat_max)) * std::sin(dlambda / 2.0), 0.0,
            1.0));
    return std::max(lat_bound, lon_bound);
  }
  return 0.0;
}

/// Sampled one-sided Hausdorff lower bound: max over sampled points a_p of
/// min over all b_q of d(a_p, b_q). Every coupling matches a_p with some
/// b_q, so this never exceeds the DFD. O(samples * lb).
double SampledHausdorffLb(const Trajectory& a, const Trajectory& b,
                          const GroundMetric& metric, Index samples) {
  double worst = 0.0;
  const Index step = std::max<Index>(1, a.size() / std::max<Index>(1, samples));
  for (Index p = 0; p < a.size(); p += step) {
    double best = std::numeric_limits<double>::infinity();
    for (Index q = 0; q < b.size(); ++q) {
      best = std::min(best, metric.Distance(a[p], b[q]));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

/// The largest |latitude| any box in either collection reaches, for the
/// margin's meridian-convergence correction.
double AbsLatMaxOf(const std::vector<BoundingBox>& a,
                   const std::vector<BoundingBox>& b) {
  double abs_lat_max = 0.0;
  for (const auto* boxes : {&a, &b}) {
    for (const BoundingBox& box : *boxes) {
      abs_lat_max =
          std::max({abs_lat_max, std::abs(box.min_x), std::abs(box.max_x)});
    }
  }
  return abs_lat_max;
}

Status ValidateInputs(const std::vector<Trajectory>& left,
                      const std::vector<Trajectory>& right,
                      const GroundMetric& metric, const JoinOptions& options) {
  FM_RETURN_IF_ERROR(ValidateDfdThreshold(options.threshold, "join threshold"));
  if (left.empty() || right.empty()) {
    return Status::InvalidArgument("join inputs must be non-empty");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("join threads must be >= 0");
  }
  for (const auto& collection : {&left, &right}) {
    for (const Trajectory& t : *collection) {
      if (t.empty()) {
        return Status::InvalidArgument(
            "join inputs must not contain empty trajectories");
      }
      FM_RETURN_IF_ERROR(ValidatePoints(t, metric));
    }
  }
  return Status::Ok();
}

}  // namespace

double JoinCoordinateMargin(const GroundMetric& metric, double threshold,
                            double abs_lat_max) {
  if (dynamic_cast<const EuclideanMetric*>(&metric) != nullptr) {
    return threshold;
  }
  if (dynamic_cast<const HaversineMetric*>(&metric) != nullptr) {
    const double meters_per_degree = 111132.0;  // conservative minimum
    const double lat_margin = threshold / meters_per_degree;
    const double cos_lat =
        std::max(0.01, std::cos(DegToRad(std::min(abs_lat_max + 1.0, 89.0))));
    const double lon_margin = threshold / (meters_per_degree * cos_lat);
    return std::max(lat_margin, lon_margin);
  }
  // Unknown metric: no sound conversion — effectively disable filtering by
  // using an enormous margin.
  return 1e12;
}

/// Resolves one pair through the cascade. Returns true iff it matches.
bool ResolveJoinCandidate(const Trajectory& a, const BoundingBox& box_a,
                          const Trajectory& b, const BoundingBox& box_b,
                          const GroundMetric& metric,
                          const JoinOptions& options, JoinStats* stats,
                          FrechetScratch* scratch) {
  const double theta = options.threshold;
  if (options.use_pruning) {
    if (BboxGap(box_a, box_b, metric) > theta) {
      if (stats != nullptr) ++stats->pruned_bbox;
      return false;
    }
    const double endpoint_lb =
        std::max(metric.Distance(a[0], b[0]),
                 metric.Distance(a[a.size() - 1], b[b.size() - 1]));
    if (endpoint_lb > theta) {
      if (stats != nullptr) ++stats->pruned_endpoints;
      return false;
    }
    if (options.hausdorff_samples > 0 &&
        SampledHausdorffLb(a, b, metric, options.hausdorff_samples) > theta) {
      if (stats != nullptr) ++stats->pruned_hausdorff;
      return false;
    }
  }
  if (stats != nullptr) ++stats->decided_exact;
  const StatusOr<bool> within =
      DiscreteFrechetAtMost(a, b, metric, theta, scratch);
  const bool matched = within.ok() && within.value();
  if (matched && stats != nullptr) ++stats->matched;
  return matched;
}

namespace {

void MergeJoinStats(const JoinStats& from, JoinStats* into) {
  into->pairs_total += from.pairs_total;
  into->pruned_bbox += from.pruned_bbox;
  into->pruned_endpoints += from.pruned_endpoints;
  into->pruned_hausdorff += from.pruned_hausdorff;
  into->decided_exact += from.decided_exact;
  into->matched += from.matched;
}

/// The candidate-pair enumerator: invokes a callback for each candidate in
/// the canonical (deterministic) order.
using CandidateEnumerator =
    std::function<void(const std::function<void(const JoinPair&)>&)>;

/// Runs the pruning cascade + exact decision over the enumerated
/// candidates. Serial path (threads <= 1): candidates stream straight
/// through the cascade — no list is materialized, preserving the O(1)
/// extra memory of the pre-pool implementation. Parallel path: the list
/// is materialized once and partitioned into contiguous chunks; per-lane
/// match lists are concatenated in lane order, so the output order (and
/// content) is identical to the serial loop, and per-lane stats are
/// summed in lane order. Per-lane FrechetScratch keeps the decision
/// kernel allocation-free.
std::vector<JoinPair> ResolveCandidates(const CandidateEnumerator& enumerate,
                                        const std::vector<Trajectory>& left,
                                        const std::vector<BoundingBox>& left_boxes,
                                        const std::vector<Trajectory>& right,
                                        const std::vector<BoundingBox>& right_boxes,
                                        const GroundMetric& metric,
                                        const JoinOptions& options,
                                        JoinStats* stats) {
  const int threads = ResolveThreadCount(options.threads);
  if (threads <= 1) {
    std::vector<JoinPair> matches;
    FrechetScratch scratch;
    enumerate([&](const JoinPair& c) {
      if (stats != nullptr) ++stats->pairs_total;
      if (ResolveJoinCandidate(left[c.li], left_boxes[c.li], right[c.ri],
                      right_boxes[c.ri], metric, options, stats, &scratch)) {
        matches.push_back(c);
      }
    });
    return matches;
  }
  std::vector<JoinPair> candidates;
  enumerate([&](const JoinPair& c) { candidates.push_back(c); });
  if (stats != nullptr) {
    stats->pairs_total += static_cast<std::int64_t>(candidates.size());
  }
  ThreadPool pool(threads);
  const int lanes = pool.threads();
  std::vector<std::vector<JoinPair>> lane_matches(lanes);
  std::vector<JoinStats> lane_stats(lanes);
  pool.ParallelFor(
      static_cast<std::int64_t>(candidates.size()),
      [&](int lane, std::int64_t lo, std::int64_t hi) {
        FrechetScratch scratch;
        JoinStats* local = stats != nullptr ? &lane_stats[lane] : nullptr;
        for (std::int64_t k = lo; k < hi; ++k) {
          const JoinPair& c = candidates[static_cast<std::size_t>(k)];
          if (ResolveJoinCandidate(left[c.li], left_boxes[c.li], right[c.ri],
                          right_boxes[c.ri], metric, options, local,
                          &scratch)) {
            lane_matches[lane].push_back(c);
          }
        }
      });
  std::vector<JoinPair> matches;
  for (int lane = 0; lane < lanes; ++lane) {
    matches.insert(matches.end(), lane_matches[lane].begin(),
                   lane_matches[lane].end());
    if (stats != nullptr) MergeJoinStats(lane_stats[lane], stats);
  }
  return matches;
}

}  // namespace

std::string JoinStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pairs=%lld bbox-pruned=%lld endpoint-pruned=%lld "
                "hausdorff-pruned=%lld exact-decided=%lld matched=%lld",
                static_cast<long long>(pairs_total),
                static_cast<long long>(pruned_bbox),
                static_cast<long long>(pruned_endpoints),
                static_cast<long long>(pruned_hausdorff),
                static_cast<long long>(decided_exact),
                static_cast<long long>(matched));
  return buf;
}

StatusOr<std::vector<JoinPair>> DfdSimilarityJoin(
    const std::vector<Trajectory>& left, const std::vector<Trajectory>& right,
    const GroundMetric& metric, const JoinOptions& options,
    JoinStats* stats) {
  FM_RETURN_IF_ERROR(ValidateInputs(left, right, metric, options));

  std::vector<BoundingBox> left_boxes;
  left_boxes.reserve(left.size());
  for (const Trajectory& t : left) left_boxes.push_back(BoundingBox::Of(t));
  std::vector<BoundingBox> right_boxes;
  right_boxes.reserve(right.size());
  for (const Trajectory& t : right) right_boxes.push_back(BoundingBox::Of(t));

  // Candidate generation (grid-indexed or exhaustive) is cheap and runs
  // serially; verification streams (threads=1) or fans out over the
  // enumerated candidates.
  if (options.use_grid_index) {
    const double margin =
        JoinCoordinateMargin(metric, options.threshold,
                             AbsLatMaxOf(left_boxes, right_boxes));
    const StatusOr<GridIndex> index =
        GridIndex::Build(right_boxes, std::max(margin, 1e-9) * 2.0);
    if (!index.ok()) return index.status();
    const CandidateEnumerator enumerate =
        [&](const std::function<void(const JoinPair&)>& emit) {
          for (std::size_t li = 0; li < left.size(); ++li) {
            for (const std::size_t ri :
                 index.value().Candidates(left_boxes[li].Expanded(margin))) {
              emit(JoinPair{li, ri});
            }
          }
        };
    return ResolveCandidates(enumerate, left, left_boxes, right, right_boxes,
                             metric, options, stats);
  }
  const CandidateEnumerator enumerate =
      [&](const std::function<void(const JoinPair&)>& emit) {
        for (std::size_t li = 0; li < left.size(); ++li) {
          for (std::size_t ri = 0; ri < right.size(); ++ri) {
            emit(JoinPair{li, ri});
          }
        }
      };
  return ResolveCandidates(enumerate, left, left_boxes, right, right_boxes,
                           metric, options, stats);
}

StatusOr<std::vector<JoinPair>> DfdSelfJoin(
    const std::vector<Trajectory>& trajectories, const GroundMetric& metric,
    const JoinOptions& options, JoinStats* stats) {
  FM_RETURN_IF_ERROR(
      ValidateInputs(trajectories, trajectories, metric, options));

  std::vector<BoundingBox> boxes;
  boxes.reserve(trajectories.size());
  for (const Trajectory& t : trajectories) {
    boxes.push_back(BoundingBox::Of(t));
  }

  if (options.use_grid_index) {
    const double margin =
        JoinCoordinateMargin(metric, options.threshold, AbsLatMaxOf(boxes, boxes));
    const StatusOr<GridIndex> index =
        GridIndex::Build(boxes, std::max(margin, 1e-9) * 2.0);
    if (!index.ok()) return index.status();
    const CandidateEnumerator enumerate =
        [&](const std::function<void(const JoinPair&)>& emit) {
          for (std::size_t i = 0; i < trajectories.size(); ++i) {
            for (const std::size_t j :
                 index.value().Candidates(boxes[i].Expanded(margin))) {
              if (j <= i) continue;  // unordered pairs once
              emit(JoinPair{i, j});
            }
          }
        };
    return ResolveCandidates(enumerate, trajectories, boxes, trajectories,
                             boxes, metric, options, stats);
  }
  const CandidateEnumerator enumerate =
      [&](const std::function<void(const JoinPair&)>& emit) {
        for (std::size_t i = 0; i + 1 < trajectories.size(); ++i) {
          for (std::size_t j = i + 1; j < trajectories.size(); ++j) {
            emit(JoinPair{i, j});
          }
        }
      };
  return ResolveCandidates(enumerate, trajectories, boxes, trajectories,
                           boxes, metric, options, stats);
}

}  // namespace frechet_motif
