#include "motif/gtm.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "motif/group.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

StatusOr<MotifResult> GtmMotif(const DistanceProvider& dist,
                               const GtmOptions& options, MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.group_size_tau < 1) {
    return Status::InvalidArgument("group_size_tau must be >= 1");
  }
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));
  const double lb_scale = 1.0 + options.approximation_epsilon;

  Timer timer;
  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());

  const std::unique_ptr<ThreadPool> pool = MakeSearchPool(options.motif);

  // Point-level relaxed bounds, used in the final phase and for end-cross
  // pruning inside the shared DP.
  const RelaxedBounds rb =
      RelaxedBounds::Build(dist, options.motif, pool.get());
  if (stats != nullptr) {
    stats->memory.Add(rb.MemoryBytes());
    stats->total_subsets = CountValidSubsets(options.motif, n, m);
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;

  // Multi-level grouping loop (Algorithm 3 lines 2-14).
  Index tau = options.group_size_tau;
  std::vector<std::pair<Index, Index>> pairs;
  bool have_pairs = false;
  while (tau > 1) {
    const Grouping grouping = Grouping::Build(dist, options.motif, tau);
    const ScopedAllocation grouping_mem(
        stats != nullptr ? &stats->memory : nullptr, grouping.MemoryBytes());
    // The first round considers every group pair.
    const std::vector<std::pair<Index, Index>> survivors =
        PruneGroupPairs(grouping, have_pairs ? &pairs : nullptr, lb_scale,
                        &state.threshold, stats);
    have_pairs = true;

    // Halve τ: each survivor splits into the child pairs whose point spans
    // intersect the parent's (Algorithm 3 line 14). For odd τ the child
    // span per axis covers three groups, not two.
    const Index parent_tau = tau;
    tau /= 2;
    pairs.clear();
    const Index child_nu = (n + tau - 1) / tau;
    const Index child_nv = (m + tau - 1) / tau;
    for (const auto& [u, v] : survivors) {
      const Index cu_lo = (u * parent_tau) / tau;
      const Index cu_hi =
          std::min<Index>(((u + 1) * parent_tau - 1) / tau, child_nu - 1);
      const Index cv_lo = (v * parent_tau) / tau;
      const Index cv_hi =
          std::min<Index>(((v + 1) * parent_tau - 1) / tau, child_nv - 1);
      for (Index cu = cu_lo; cu <= cu_hi; ++cu) {
        for (Index cv = cv_lo; cv <= cv_hi; ++cv) {
          pairs.emplace_back(cu, cv);
        }
      }
    }
  }

  // Final phase (Algorithm 3 line 15): the surviving cells are candidate
  // subsets; run the best-first bounded search of Algorithm 2 on them.
  const MotifOptions& motif = options.motif;
  const auto bound = [&](Index i, Index j) { return rb.SubsetLb(dist, i, j); };
  std::vector<SubsetEntry> entries;
  if (have_pairs) {
    for (const auto& [i, j] : pairs) {
      if (IsValidSubsetStart(motif, n, m, i, j)) {
        entries.push_back(SubsetEntry{0.0, i, j});
      }
    }
    FillSubsetBounds(&entries, pool.get(), bound);
  } else {
    // τ was 1 from the start: degenerate to plain BTM over all subsets.
    entries = BuildSubsetQueue(motif, n, m, pool.get(), bound);
  }
  if (stats != nullptr) {
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
  }
  RunSubsetQueue(dist, motif, &entries, &rb, options.use_end_cross,
                 /*sort_entries=*/true, &state, stats, /*caps=*/nullptr,
                 lb_scale, pool.get());
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();
  return state.result();
}

StatusOr<MotifResult> GtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const GtmOptions& options, MotifStats* stats) {
  return SearchOnMatrix(GtmMotif, options, metric, stats, s);
}

StatusOr<MotifResult> GtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const GtmOptions& options, MotifStats* stats) {
  return SearchOnMatrix(GtmMotif, options, metric, stats, s, t);
}

}  // namespace frechet_motif
