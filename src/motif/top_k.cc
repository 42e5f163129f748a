#include "motif/top_k.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A subset optimum awaiting final selection.
struct PoolEntry {
  double distance = 0.0;
  Candidate candidate;
};

/// Chebyshev distance between the start cells of two candidates.
Index StartSeparation(const Candidate& a, const Candidate& b) {
  const Index di = a.i > b.i ? a.i - b.i : b.i - a.i;
  const Index dj = a.j > b.j ? a.j - b.j : b.j - a.j;
  return di > dj ? di : dj;
}

}  // namespace

StatusOr<std::vector<MotifResult>> TopKMotifs(const DistanceProvider& dist,
                                              const TopKOptions& options,
                                              MotifStats* stats) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  FM_RETURN_IF_ERROR(ValidateMotifInput(options.motif, n, m));
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.min_start_separation < 1) {
    return Status::InvalidArgument("min_start_separation must be >= 1");
  }
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));
  const double lb_scale = 1.0 + options.approximation_epsilon;

  Timer timer;
  if (stats != nullptr) stats->memory.Add(dist.MemoryBytes());

  // Worker pool for the bounds build and the subset-bound sweep; the
  // evaluation loop below stays serial — its heap threshold evolves with
  // every subset.
  const std::unique_ptr<ThreadPool> pool = MakeSearchPool(options.motif);
  const RelaxedBounds rb =
      RelaxedBounds::Build(dist, options.motif, pool.get());

  // Candidate subsets in ascending combined-lower-bound order, as in BTM.
  std::vector<SubsetEntry> entries = BuildSubsetQueue(
      options.motif, n, m, pool.get(),
      [&](Index i, Index j) { return rb.SubsetLb(dist, i, j); });
  SortSubsetQueue(&entries);
  if (stats != nullptr) {
    stats->total_subsets = static_cast<std::int64_t>(entries.size());
    stats->memory.Add(entries.capacity() * sizeof(SubsetEntry));
    stats->precompute_seconds += timer.ElapsedSeconds();
  }

  timer.Restart();
  // Max-heap of the best subset-optimum distances seen so far; its top is
  // the pruning threshold once full. With separation == 1 the heap holds
  // exactly k and the search is exact: a subset whose lower bound exceeds
  // the current k-th best optimum can never place in the top k. With a
  // larger separation the greedy selection may need to look past
  // conflicting near-duplicates, so the heap is widened (a motif "ridge"
  // contributes ~separation adjacent subsets per direction).
  const int heap_capacity =
      options.min_start_separation == 1
          ? options.k
          : options.k * (2 * static_cast<int>(options.min_start_separation));
  std::priority_queue<double> best_k;
  auto prune_threshold = [&] {
    return static_cast<int>(best_k.size()) < heap_capacity ? kInf
                                                           : best_k.top();
  };

  std::vector<PoolEntry> candidate_pool;
  FrechetScratch scratch;
  for (const SubsetEntry& e : entries) {
    // Sorted: once the scaled bound exceeds the running k-th best, the
    // rest of the queue can only do worse (by at most a (1+ε) factor).
    if (e.lb * lb_scale > prune_threshold()) break;
    // The DP freezes cells above its threshold. With separation 1 a subset
    // optimum above the heap top can never place, so the heap top serves.
    // A wider separation's greedy selection may reach past the heap top
    // into the pool, which therefore needs each subset's exact optimum.
    SearchState local;
    if (options.min_start_separation == 1) local.threshold = prune_threshold();
    EvaluateSubset(dist, options.motif, e.i, e.j, EndpointCaps{}, &local,
                   stats, &scratch);
    if (!local.found) continue;  // whole subset above the threshold
    candidate_pool.push_back(PoolEntry{local.best_distance, local.best});
    best_k.push(local.best_distance);
    if (static_cast<int>(best_k.size()) > heap_capacity) best_k.pop();
  }

  // Greedy selection in ascending distance order, honouring separation.
  // Equal distances resolve in candidate order, as SearchState::Record
  // resolves them.
  std::sort(candidate_pool.begin(), candidate_pool.end(),
            [](const PoolEntry& a, const PoolEntry& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return CandidateOrderedBefore(a.candidate, b.candidate);
            });
  std::vector<MotifResult> results;
  for (const PoolEntry& entry : candidate_pool) {
    if (static_cast<int>(results.size()) >= options.k) break;
    bool conflicts = false;
    for (const MotifResult& chosen : results) {
      if (StartSeparation(entry.candidate, chosen.best) <
          options.min_start_separation) {
        conflicts = true;
        break;
      }
    }
    if (conflicts) continue;
    MotifResult r;
    r.best = entry.candidate;
    r.distance = entry.distance;
    r.found = true;
    results.push_back(r);
  }
  if (stats != nullptr) stats->search_seconds += timer.ElapsedSeconds();
  return results;
}

StatusOr<std::vector<MotifResult>> TopKMotifs(const Trajectory& s,
                                              const GroundMetric& metric,
                                              const TopKOptions& options,
                                              MotifStats* stats) {
  return SearchOnMatrix(TopKMotifs, options, metric, stats, s);
}

StatusOr<std::vector<MotifResult>> TopKMotifs(const Trajectory& s,
                                              const Trajectory& t,
                                              const GroundMetric& metric,
                                              const TopKOptions& options,
                                              MotifStats* stats) {
  return SearchOnMatrix(TopKMotifs, options, metric, stats, s, t);
}

}  // namespace frechet_motif
