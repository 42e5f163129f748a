#ifndef FRECHET_MOTIF_MOTIF_SUBSET_SEARCH_H_
#define FRECHET_MOTIF_MOTIF_SUBSET_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "geo/metric.h"
#include "motif/relaxed_bounds.h"
#include "motif/stats.h"
#include "similarity/frechet.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

/// The one subset-search pipeline behind every motif search — BruteDP,
/// BTM, GTM, GTM*, top-k and the streaming engine's WindowState:
///
///   build    BuildSubsetQueue: every valid CS(i,j) with its lower bound
///            (RelaxedBounds::SubsetLb, or BTM's ablation components);
///   sort     SortSubsetQueue: ascending (lb, i, j);
///   admit    RunSubsetQueue's one admission test per entry (scaled bound,
///            sorted-tail stop, endpoint caps);
///   evaluate EvaluateSubset, the shared DP over one subset.
///
/// GTM and GTM* first narrow the queue with the group-pair pruner they
/// share (PruneGroupPairs, motif/group.h). Two loops drain a queue their
/// own way on purpose: BTM's tight-bound cascade, which evaluates its
/// bounds lazily per subset, and top-k's per-subset heap. BruteDP walks
/// every subset with no queue at all. SearchState::result() is every
/// search's answer and MakeSearchPool its worker pool; SearchOnMatrix
/// implements the trajectory overloads of the matrix-backed searches.

namespace frechet_motif {

/// Mutable state of a motif search shared by all algorithms.
///
/// Threshold semantics (exactness-preserving): `threshold` is always an
/// upper bound on the true motif distance — it is tightened by exact DFD
/// values of evaluated candidates and (in GTM) by group upper bounds
/// GUB_DFD. Search-space elements are pruned only when a lower bound is
/// *strictly* greater than `threshold`; because the true motif's bounds
/// never exceed its own DFD <= threshold, the optimum always survives and
/// is eventually evaluated and recorded in `best`/`best_distance`.
///
/// Tie stability: every pruning rule in the library is strict (`lb >
/// threshold`, end-cross freeze, endpoint caps), so *every* candidate
/// achieving the optimal distance is evaluated by every algorithm, and
/// Record resolves equal-distance candidates to the minimum under
/// `CandidateOrderedBefore`. The reported pair is therefore a function of
/// the input alone — independent of evaluation order, thread count,
/// algorithm choice, and (for the streaming engine) of whether a slide
/// carried its previous optimum or re-derived it.
struct SearchState {
  double threshold = std::numeric_limits<double>::infinity();
  Candidate best;
  double best_distance = std::numeric_limits<double>::infinity();
  bool found = false;

  /// Records an evaluated candidate with exact DFD `d`. Equal-distance
  /// candidates resolve to the lexicographically smallest (i, j, ie, je).
  void Record(const Candidate& c, double d) {
    if (d < best_distance ||
        (found && d == best_distance && CandidateOrderedBefore(c, best))) {
      best_distance = d;
      best = c;
      found = true;
    }
    if (d < threshold) threshold = d;
  }

  /// The search's answer: the best candidate recorded so far.
  MotifResult result() const { return MotifResult{best, best_distance, found}; }
};

/// Caps on candidate endpoints, justified by whole-row/column minima
/// (RelaxedBounds::RminFull / CminFull): once min_c dG(c, y+1) exceeds the
/// threshold, column y+1 is a *wall* no surviving path may cross, so a
/// candidate starting at j <= y+1 cannot end at jc > y. A candidate
/// starting past the wall (j > y+1) lies entirely on its far side, never
/// crosses it, and is NOT constrained — the evaluation applies each cap
/// only to subsets at or left of the wall. This generalizes the global
/// `jend` shrink of Algorithm 2 lines 12-13 (and adds the symmetric
/// first-index cap).
struct EndpointCaps {
  Index ie_cap = std::numeric_limits<Index>::max();
  Index je_cap = std::numeric_limits<Index>::max();
};

/// Runs the shared dynamic program over candidate subset CS(i,j): one pass
/// computing dF(i, ie, j, je) for all end pairs, updating `state` with every
/// valid candidate (Algorithm 1 lines 4-13 / Algorithm 2 lines 6-13).
///
/// Uses two rolling DP rows (O(m) space — GTM*'s Idea (ii)) held in the
/// caller-provided `scratch`, reused across subsets so no evaluation
/// allocates after warm-up.
///
/// Reads dG through the row view: one dist.RowSpan(ie, j, width, buf)
/// call per DP row, with `buf` the per-lane scratch->dist_row. A matrix
/// serves the span from its storage, the ring copies only a span that
/// crosses its column seam, and an on-the-fly provider fills `buf` (one
/// batched call under haversine). Every provider's spans are
/// bit-identical to its Distance(), so the result and the counters do not
/// depend on which provider is passed.
///
/// When `relaxed` is non-null and `use_end_cross` is set, applies the
/// end-cell cross bound (Equation 9): a DP cell whose extensions are all
/// strictly worse than state->threshold is frozen (set to +inf), and the
/// subset evaluation stops early once an entire row is frozen.
///
/// `stats` may be null.
void EvaluateSubset(const DistanceProvider& dist, const MotifOptions& options,
                    Index i, Index j, const RelaxedBounds* relaxed,
                    bool use_end_cross, const EndpointCaps& caps,
                    SearchState* state, MotifStats* stats,
                    FrechetScratch* scratch);

/// A candidate subset queued for evaluation, with its combined lower bound.
struct SubsetEntry {
  double lb = 0.0;
  Index i = 0;
  Index j = 0;
};

/// The best-first subset loop shared by BTM, GTM, GTM* and the streaming
/// engine (Algorithm 2 lines 3-13): optionally sorts `entries` with
/// SortSubsetQueue, then evaluates each subset whose bound does not
/// strictly exceed the running threshold. With sorting enabled the loop
/// stops at the first bound above the threshold (every later entry is at
/// least as large). Maintains the global endpoint caps after each
/// best-so-far improvement when `relaxed` is provided. Every entry passes
/// one admission test (scaled bound, sorted tail, endpoint caps) before it
/// is evaluated, on the serial and the pooled path alike.
/// `caps` optionally carries the endpoint caps across calls (GTM* processes
/// one block per call but the caps are global facts); pass null to use
/// fresh caps for the call.
///
/// `lb_scale` implements the (1+ε)-approximate mode (the future-work
/// direction of the paper's Section 7): a subset is skipped when
/// lb * lb_scale exceeds the threshold. With lb_scale = 1+ε and a threshold
/// fed only by evaluated candidates, the returned distance is at most
/// (1+ε) times the optimum: whenever the optimum's subset is skipped, the
/// best-so-far at that moment is already below (1+ε)·LB <= (1+ε)·optimum.
/// lb_scale = 1 (default) keeps the search exact.
///
/// `pool` (optional) parallelizes the verification: batches of up to
/// pool->threads() queue-eligible subsets are evaluated concurrently, each
/// against a frozen snapshot of the search state, and the per-subset
/// improvements are merged back in queue order. Because the end-cross
/// freeze and the endpoint caps only ever discard candidates that are
/// provably worse than the running threshold (which only tightens), a
/// stale snapshot threshold prunes less but never changes which candidate
/// wins — the returned motif (candidate, distance, found) is bit-identical
/// to the serial path. Effort counters (subsets_evaluated,
/// dfd_cells_computed, bsf_updates) may legitimately differ from the
/// serial run — a batch is admitted against the batch-start threshold —
/// but total_subsets and the pruning-soundness invariants do not.
/// Exception: approximate mode (lb_scale > 1) ignores `pool` and runs
/// serially — there a skipped subset may hold a better-than-best
/// candidate, so batching could change which (1+ε)-valid answer is
/// returned.
void RunSubsetQueue(const DistanceProvider& dist, const MotifOptions& options,
                    std::vector<SubsetEntry>* entries,
                    const RelaxedBounds* relaxed, bool use_end_cross,
                    bool sort_entries, SearchState* state, MotifStats* stats,
                    EndpointCaps* caps = nullptr, double lb_scale = 1.0,
                    ThreadPool* pool = nullptr);

/// The one queue order: ascending lower bound, ties broken by (i, j). A
/// total order, so the processing order never depends on std::sort's
/// treatment of equal keys — and, for the streaming engine, filtering
/// entries out of the queue beforehand cannot reorder the survivors.
void SortSubsetQueue(std::vector<SubsetEntry>* entries);

/// Invokes `fn(i, j)` for every candidate subset CS(i,j) that admits at
/// least one valid candidate under `options`, in row-major order.
template <typename Fn>
void ForEachValidSubset(const MotifOptions& options, Index n, Index m,
                        const Fn& fn) {
  const Index xi = options.min_length_xi;
  if (options.variant == MotifVariant::kSingleTrajectory) {
    for (Index i = 0; i <= m - 2 * xi - 4; ++i) {
      for (Index j = i + xi + 2; j <= m - xi - 2; ++j) fn(i, j);
    }
  } else {
    for (Index i = 0; i <= n - xi - 2; ++i) {
      for (Index j = 0; j <= m - xi - 2; ++j) fn(i, j);
    }
  }
}

/// Fills entries[k].lb = bound(entries[k].i, entries[k].j) for every
/// entry, sharded across `pool` when one is given (null or single-lane
/// runs serially). Each index is written by exactly one lane, so the
/// parallel sweep is bit-identical to the serial one.
template <typename Bound>
void FillSubsetBounds(std::vector<SubsetEntry>* entries, ThreadPool* pool,
                      const Bound& bound) {
  const auto fill = [entries, &bound](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t k = lo; k < hi; ++k) {
      SubsetEntry& e = (*entries)[static_cast<std::size_t>(k)];
      e.lb = bound(e.i, e.j);
    }
  };
  const auto size = static_cast<std::int64_t>(entries->size());
  if (pool != nullptr && pool->threads() > 1) {
    pool->ParallelFor(size, [&](int, std::int64_t lo, std::int64_t hi) {
      fill(lo, hi);
    });
  } else {
    fill(0, size);
  }
}

/// Number of subsets ForEachValidSubset would visit.
std::int64_t CountValidSubsets(const MotifOptions& options, Index n, Index m);

/// The subset queue of an n×m search: every valid CS(i,j) in row-major
/// order with lb = bound(i, j), filled by FillSubsetBounds. Unsorted;
/// RunSubsetQueue or SortSubsetQueue orders it.
template <typename Bound>
std::vector<SubsetEntry> BuildSubsetQueue(const MotifOptions& options,
                                          Index n, Index m, ThreadPool* pool,
                                          const Bound& bound) {
  std::vector<SubsetEntry> entries;
  entries.reserve(static_cast<std::size_t>(CountValidSubsets(options, n, m)));
  ForEachValidSubset(options, n, m, [&entries](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  FillSubsetBounds(&entries, pool, bound);
  return entries;
}

/// True iff CS(i,j) admits at least one valid candidate under `options`.
bool IsValidSubsetStart(const MotifOptions& options, Index n, Index m, Index i,
                        Index j);

/// InvalidArgument unless `epsilon` is finite and >= 0 (the approximation
/// knob of every search, batch and streaming).
Status ValidateApproximationEpsilon(double epsilon);

/// The worker pool of one search (bound sweeps and verification batches),
/// sized by ResolveThreadCount(options.threads); null on the threads=1
/// serial path.
std::unique_ptr<ThreadPool> MakeSearchPool(const MotifOptions& options);

/// The MotifOptions of an algorithm's options struct (BruteDP takes
/// MotifOptions itself).
inline MotifOptions& MotifOptionsOf(MotifOptions& options) { return options; }
template <typename Options>
MotifOptions& MotifOptionsOf(Options& options) {
  return options.motif;
}

/// The trajectory overloads of every matrix-backed search: builds dG over
/// one trajectory (Problem 1, the caller's variant) or two (the cross
/// variant, which this sets), adds the build time to
/// stats->precompute_seconds, and runs `search` on the matrix.
template <typename Result, typename Options, typename... Trajectories>
StatusOr<Result> SearchOnMatrix(
    StatusOr<Result> (*search)(const DistanceProvider&, const Options&,
                               MotifStats*),
    Options options, const GroundMetric& metric, MotifStats* stats,
    const Trajectories&... trajectories) {
  static_assert(sizeof...(Trajectories) == 1 || sizeof...(Trajectories) == 2,
                "one trajectory, or two for the cross variant");
  Timer timer;
  StatusOr<DistanceMatrix> dg = DistanceMatrix::Build(trajectories..., metric);
  if (!dg.ok()) return dg.status();
  if (stats != nullptr) stats->precompute_seconds += timer.ElapsedSeconds();
  if (sizeof...(Trajectories) == 2) {
    MotifOptionsOf(options).variant = MotifVariant::kCrossTrajectory;
  }
  return search(dg.value(), options, stats);
}

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_MOTIF_SUBSET_SEARCH_H_
