#include "motif/btm.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "motif/bounds.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tight-bound loop (the Section 4.2 variant benchmarked in Figures 13/14):
/// a tight cross bound costs O(n) and a tight band bound O(ξn), so they
/// cannot be computed for all O(n²) subsets up front. Instead the queue is
/// ordered by the O(1) cell bound and the expensive bounds are evaluated
/// lazily, per subset, in the cascade order — each either prunes the subset
/// or is followed by the shared DP.
SearchState RunTight(const DistanceProvider& dist, const BtmOptions& options,
                     const std::vector<SubsetEntry>& entries,
                     MotifStats* stats) {
  SearchState state;
  const double lb_scale = 1.0 + options.approximation_epsilon;
  FrechetScratch scratch;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const SubsetEntry& e = entries[k];
    if (e.lb * lb_scale > state.threshold) {
      if (options.sort_subsets) {
        // Everything after this point has a cell bound above the threshold.
        if (stats != nullptr) {
          stats->pruned_by_cell +=
              static_cast<std::int64_t>(entries.size() - k);
        }
        break;
      }
      if (stats != nullptr) ++stats->pruned_by_cell;
      continue;
    }
    if (options.use_cross &&
        LbStartCross(dist, options.motif, e.i, e.j) * lb_scale >
            state.threshold) {
      if (stats != nullptr) ++stats->pruned_by_cross;
      continue;
    }
    if (options.use_band &&
        std::max(LbRowBand(dist, options.motif, e.i, e.j),
                 LbColBand(dist, options.motif, e.i, e.j)) *
                lb_scale >
            state.threshold) {
      if (stats != nullptr) ++stats->pruned_by_band;
      continue;
    }
    EvaluateSubset(dist, options.motif, e.i, e.j, EndpointCaps{}, &state,
                   stats, &scratch);
  }
  return state;
}

}  // namespace

StatusOr<MotifResult> BtmMotif(const DistanceProvider& dist,
                               const BtmOptions& options, MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));

  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());
  const std::unique_ptr<ThreadPool> pool = MakeSearchPool(options.motif);

  // Relaxed-bound arrays serve the relaxed subset bounds and the endpoint
  // caps of the relaxed queue.
  RelaxedBounds rb;
  Timer timer;
  if (options.relaxed) {
    rb = RelaxedBounds::Build(dist, options.motif, pool.get());
    if (stats != nullptr) {
      stats->memory.Add(rb.MemoryBytes());
      stats->precompute_seconds += timer.ElapsedSeconds();
    }
  }

  // The relaxed bound components, each -infinity when its ablation toggle
  // is off; the queue key and the Figure 15 breakdown both read them.
  const auto components = [&](Index i, Index j) {
    double cell = -kInf;
    double cross = -kInf;
    double band = -kInf;
    if (options.use_cell) cell = LbCell(dist, i, j);
    if (options.use_cross) cross = rb.StartCross(i, j);
    if (options.use_band) band = std::max(rb.BandRow(j), rb.BandCol(i));
    return std::array<double, 3>{cell, cross, band};
  };

  // Relaxed: every bound is O(1) after the precomputation pass, so the
  // combined bound of every subset keys the queue (Algorithm 2 verbatim).
  // Tight: the queue is keyed by the cell bound alone and sorted here; the
  // loop evaluates the rest lazily.
  timer.Restart();
  std::vector<SubsetEntry> entries = BuildSubsetQueue(
      options.motif, n, m, pool.get(), [&](Index i, Index j) {
        if (!options.relaxed) {
          return options.use_cell ? LbCell(dist, i, j) : -kInf;
        }
        const auto c = components(i, j);
        return std::max({c[0], c[1], c[2]});
      });
  if (!options.relaxed && options.sort_subsets) SortSubsetQueue(&entries);
  if (stats != nullptr) {
    stats->total_subsets = static_cast<std::int64_t>(entries.size());
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
    stats->memory.Add(2 * static_cast<std::size_t>(m) * sizeof(double));
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  SearchState state;
  if (options.relaxed) {
    RunSubsetQueue(dist, options.motif, &entries, &rb, options.sort_subsets,
                   &state, stats, /*caps=*/nullptr,
                   1.0 + options.approximation_epsilon, pool.get());
  } else {
    state = RunTight(dist, options, entries, stats);
  }
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();

  // Figure 15 accounting: classify each subset by the first bound in the
  // cascade (cell -> cross -> band) exceeding the final threshold.
  if (options.relaxed && stats != nullptr && options.collect_breakdown) {
    ForEachValidSubset(options.motif, n, m, [&](Index i, Index j) {
      const auto c = components(i, j);
      if (c[0] > state.threshold) {
        ++stats->pruned_by_cell;
      } else if (c[1] > state.threshold) {
        ++stats->pruned_by_cross;
      } else if (c[2] > state.threshold) {
        ++stats->pruned_by_band;
      }
    });
  }
  return state.result();
}

StatusOr<MotifResult> BtmMotif(const Trajectory& s, const GroundMetric& metric,
                               const BtmOptions& options, MotifStats* stats) {
  return SearchOnMatrix(BtmMotif, options, metric, stats, s);
}

StatusOr<MotifResult> BtmMotif(const Trajectory& s, const Trajectory& t,
                               const GroundMetric& metric,
                               const BtmOptions& options, MotifStats* stats) {
  return SearchOnMatrix(BtmMotif, options, metric, stats, s, t);
}

}  // namespace frechet_motif
