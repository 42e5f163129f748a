#include "motif/gtm_star.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/distance_matrix.h"
#include "motif/group.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

StatusOr<MotifResult> GtmStarMotif(const DistanceProvider& dist,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.group_size_tau < 1) {
    return Status::InvalidArgument("group_size_tau must be >= 1");
  }
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));
  // (1+ε) scale on every lower-bound prune; GUB tightenings contribute
  // gub·(1+ε) so the upper bound's witness stays unprunable (see
  // GtmOptions::approximation_epsilon).
  const double lb_scale = 1.0 + options.approximation_epsilon;
  const MotifOptions& motif = options.motif;

  Timer timer;
  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());

  const std::unique_ptr<ThreadPool> pool = MakeSearchPool(motif);

  // Single grouping pass at τ (Idea iii) and O(n+m)-space relaxed bounds;
  // both scan the provider on the fly (Idea i).
  const Grouping grouping = Grouping::Build(dist, motif,
                                            options.group_size_tau);
  const RelaxedBounds rb = RelaxedBounds::Build(dist, motif, pool.get());
  if (stats != nullptr) {
    stats->memory.Add(grouping.MemoryBytes());
    stats->memory.Add(rb.MemoryBytes());
    stats->total_subsets = CountValidSubsets(motif, n, m);
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;

  // Group-pair pruning, best-first by pattern bound: one round over every
  // pair of the single grouping level.
  const std::vector<std::pair<Index, Index>> survivors =
      PruneGroupPairs(grouping, /*pairs=*/nullptr, lb_scale, &state.threshold,
                      stats);

  // Point-level phase: process each surviving block with the bounded
  // best-first subset loop, keeping per-block memory at O(τ²). The
  // endpoint caps are global facts, so they persist across blocks.
  std::vector<SubsetEntry> block;
  EndpointCaps caps;
  for (const auto& [u, v] : survivors) {
    block.clear();
    for (Index i = grouping.RowFirst(u); i <= grouping.RowLast(u); ++i) {
      for (Index j = grouping.ColFirst(v); j <= grouping.ColLast(v); ++j) {
        if (!IsValidSubsetStart(motif, n, m, i, j)) continue;
        block.push_back(SubsetEntry{rb.SubsetLb(dist, i, j), i, j});
      }
    }
    RunSubsetQueue(dist, motif, &block, &rb, options.use_end_cross,
                   /*sort_entries=*/true, &state, stats, &caps,
                   lb_scale, pool.get());
  }
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();
  return state.result();
}

namespace {

/// The trajectory overloads: one trajectory (Problem 1, the caller's
/// variant) or two (the cross variant, which this sets), read through an
/// on-the-fly provider instead of a materialized dG.
template <typename... Trajectories>
StatusOr<MotifResult> GtmStarOnTheFly(GtmStarOptions options,
                                      const GroundMetric& metric,
                                      MotifStats* stats,
                                      const Trajectories&... trajectories) {
  if (sizeof...(Trajectories) == 2) {
    options.motif.variant = MotifVariant::kCrossTrajectory;
  }
  for (const Trajectory* t : {&trajectories...}) {
    FM_RETURN_IF_ERROR(ValidatePoints(*t, metric));
  }
  const OnTheFlyDistance dist(trajectories..., metric);
  return GtmStarMotif(dist, options, stats);
}

}  // namespace

StatusOr<MotifResult> GtmStarMotif(const Trajectory& s,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  return GtmStarOnTheFly(options, metric, stats, s);
}

StatusOr<MotifResult> GtmStarMotif(const Trajectory& s, const Trajectory& t,
                                   const GroundMetric& metric,
                                   const GtmStarOptions& options,
                                   MotifStats* stats) {
  return GtmStarOnTheFly(options, metric, stats, s, t);
}

}  // namespace frechet_motif
