#include "motif/brute_dp.h"

#include <vector>

#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "util/timer.h"

namespace frechet_motif {

StatusOr<MotifResult> BruteDpMotif(const DistanceProvider& dist,
                                   const MotifOptions& options,
                                   MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options, n, m));

  Timer timer;
  if (stats != nullptr) {
    stats->memory.Add(dist.MemoryBytes());
    stats->total_subsets = CountValidSubsets(options, n, m);
  }

  SearchState state;
  FrechetScratch scratch;
  if (stats != nullptr) {
    stats->memory.Add(2 * static_cast<std::size_t>(m) * sizeof(double));
  }
  ForEachValidSubset(options, n, m, [&](Index i, Index j) {
    EvaluateSubset(dist, options, i, j, /*relaxed=*/nullptr,
                   /*use_end_cross=*/false, EndpointCaps{}, &state, stats,
                   &scratch);
  });

  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();
  return state.result();
}

StatusOr<MotifResult> BruteDpMotif(const Trajectory& s,
                                   const GroundMetric& metric,
                                   const MotifOptions& options,
                                   MotifStats* stats) {
  return SearchOnMatrix(BruteDpMotif, options, metric, stats, s);
}

StatusOr<MotifResult> BruteDpMotif(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric,
                                   const MotifOptions& options,
                                   MotifStats* stats) {
  return SearchOnMatrix(BruteDpMotif, options, metric, stats, s, t);
}

StatusOr<MotifResult> NaiveMotif(const DistanceProvider& dist,
                                 const MotifOptions& options) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options, n, m));
  const Index xi = options.min_length_xi;
  const bool single = options.variant == MotifVariant::kSingleTrajectory;

  MotifResult result;
  for (Index i = 0; i < n; ++i) {
    for (Index ie = i + xi + 1; ie < n; ++ie) {
      for (Index j = single ? ie + 1 : 0; j < m; ++j) {
        for (Index je = j + xi + 1; je < m; ++je) {
          StatusOr<double> d = DiscreteFrechetOnRange(dist, i, ie, j, je);
          if (!d.ok()) return d.status();
          if (d.value() < result.distance) {
            result.distance = d.value();
            result.best = Candidate{i, ie, j, je};
            result.found = true;
          }
        }
      }
    }
  }
  return result;
}

}  // namespace frechet_motif
