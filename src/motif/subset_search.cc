#include "motif/subset_search.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void EvaluateSubset(const DistanceProvider& dist, const MotifOptions& options,
                    Index i, Index j, const EndpointCaps& caps,
                    SearchState* state, MotifStats* stats,
                    FrechetScratch* scratch) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  const Index xi = options.min_length_xi;
  const bool single = options.variant == MotifVariant::kSingleTrajectory;
  // An endpoint cap is a wall: row ie_cap+1 / column je_cap+1 is too
  // expensive for any path to cross. It therefore binds only subsets
  // starting at or left of the wall (i <= cap+1); a subset starting past
  // it lies entirely on the far side and never crosses.
  const Index ie_cap = i - 1 <= caps.ie_cap ? caps.ie_cap : n - 1;
  const Index je_cap = j - 1 <= caps.je_cap ? caps.je_cap : m - 1;
  const Index ie_max = std::min(single ? j - 1 : n - 1, std::min(n - 1, ie_cap));
  const Index je_max = std::min(m - 1, je_cap);
  const Index width = je_max - j + 1;  // DP columns cover je in [j, je_max]

  if (ie_max <= i || width <= 0) return;

  // Two rolling DP rows, each one slot longer than the subset: slot 0 is
  // column -1, a +inf sentinel, so column 0 needs no special case.
  for (std::vector<double>* v : {&scratch->prev, &scratch->row}) {
    if (static_cast<Index>(v->size()) <= width) v->resize(width + 1);
  }
  if (static_cast<Index>(scratch->dist_row.size()) < width) {
    scratch->dist_row.resize(width);
  }
  double* prev = scratch->prev.data() + 1;
  double* curr = scratch->row.data() + 1;
  prev[-1] = kInf;
  // The row view: dG(ie, j + q) lands in buf[q] when the provider cannot
  // serve it from its own storage.
  double* const buf = scratch->dist_row.data();

  std::int64_t cells = 0;
  Index ie = i;
  bool endpoint_row = false;
  // Live band [lo, hi] of the row being built; hi < 0 while it is empty.
  Index lo = 0;
  Index hi = -1;
  // Stores cell q of row ie from its ground distance and its best live
  // predecessor. A value above the threshold is frozen to +inf: a path's
  // value never falls along an extension, so nothing through the cell can
  // be recorded. Equal values stay live, which keeps every tied optimum.
  const auto cell = [&](Index q, double g, double pred) {
    ++cells;
    const double v = std::max(g, pred);
    if (v > state->threshold) {
      curr[q] = kInf;
      return false;
    }
    if (endpoint_row && q > xi) {
      // (i, ie, j, j + q) is a valid candidate with exact DFD v.
      if (v < state->best_distance && stats != nullptr) ++stats->bsf_updates;
      state->Record(Candidate{i, ie, j, j + q}, v);
    }
    curr[q] = v;
    if (hi < 0) lo = q;
    hi = q;
    return true;
  };
  // Extends row ie rightward from column q while the run stays live; past
  // the previous row's band a cell's only predecessor is its left
  // neighbour. The span is fetched in chunks that double, so a run of L
  // cells asks the provider for fewer than 2L columns.
  const auto run = [&](Index q) {
    for (Index chunk = 1; q < width; chunk *= 2) {
      const Index count = std::min(chunk, width - q);
      const double* d = dist.RowSpan(ie, j + q, count, buf + q);
      for (Index k = 0; k < count; ++k, ++q) {
        if (!cell(q, d[k], curr[q - 1])) return;
      }
    }
  };

  // Init row ie = i: dF(i, i, j, je) is the running max of dG(i, j..je),
  // one run from the path's origin (column -1 reads -inf for this row).
  curr[-1] = -kInf;
  run(0);
  curr[-1] = kInf;

  while (hi >= 0 && ie < ie_max) {
    ++ie;
    std::swap(prev, curr);
    endpoint_row = ie >= i + xi + 1;
    const Index plo = lo;
    const Index end = std::min(hi + 2, width);
    hi = -1;
    // The previous band [plo, end - 2] and the column after it, reached
    // diagonally. Every slot read is live, frozen (+inf) or a sentinel:
    // prev[plo - 1] was frozen or the sentinel a row ago, prev[end - 1]
    // was computed frozen, and curr[plo - 1] is set here because the slot
    // may hold a stale value.
    curr[plo - 1] = kInf;
    const double* d = dist.RowSpan(ie, j + plo, end - plo, buf + plo);
    for (Index q = plo; q < end; ++q) {
      cell(q, d[q - plo], std::min({prev[q], prev[q - 1], curr[q - 1]}));
    }
    if (hi == end - 1) run(end);
  }

  if (stats != nullptr) {
    stats->dfd_cells_computed += cells;
    ++stats->subsets_evaluated;
  }
}

namespace {

/// Accumulates the counters EvaluateSubset touches, for the deterministic
/// in-order merge of parallel batches.
void MergeEvaluationStats(const MotifStats& from, MotifStats* into) {
  into->subsets_evaluated += from.subsets_evaluated;
  into->dfd_cells_computed += from.dfd_cells_computed;
  into->bsf_updates += from.bsf_updates;
}

/// Shrinks the global endpoint caps after a best-so-far improvement
/// (Algorithm 2 lines 12-13, both axes), justified by whole-row/column
/// minima: a candidate that *crosses* the capped row/column pays at least
/// its whole-line minimum, which already exceeds the threshold. The cap is
/// a wall, not a blanket endpoint bound — subsets starting past it are
/// exempt (see EndpointCaps), which keeps the search order-independent.
void TightenCaps(const RelaxedBounds& relaxed, const SearchState& state,
                 EndpointCaps* caps) {
  if (relaxed.RminFull(state.best.je) > state.threshold) {
    caps->je_cap = std::min(caps->je_cap, state.best.je);
  }
  if (relaxed.CminFull(state.best.ie) > state.threshold) {
    caps->ie_cap = std::min(caps->ie_cap, state.best.ie);
  }
}

/// What the queue does with one entry.
enum class Admission { kEvaluate, kSkip, kStop };

/// The queue's one admission test. An entry whose scaled bound exceeds the
/// threshold is skipped — or, in a sorted queue, ends the search: every
/// remaining bound is at least as large (best-first paradigm of
/// Algorithm 2). An entry that starts at or left of an endpoint-cap wall
/// but too close to reach a valid endpoint before it is skipped too;
/// subsets starting past a wall (j > cap+1) are on its far side and
/// unaffected.
Admission Admit(const SubsetEntry& entry, double threshold, double lb_scale,
                bool sorted, const EndpointCaps& caps, Index xi) {
  if (entry.lb * lb_scale > threshold) {
    return sorted ? Admission::kStop : Admission::kSkip;
  }
  if ((entry.j - 1 <= caps.je_cap && entry.j > caps.je_cap - xi - 1) ||
      (entry.i - 1 <= caps.ie_cap && entry.i > caps.ie_cap - xi - 1)) {
    return Admission::kSkip;
  }
  return Admission::kEvaluate;
}

}  // namespace

void RunSubsetQueue(const DistanceProvider& dist, const MotifOptions& options,
                    std::vector<SubsetEntry>* entries,
                    const RelaxedBounds* relaxed, bool sort_entries,
                    SearchState* state, MotifStats* stats,
                    EndpointCaps* caps_io, double lb_scale, ThreadPool* pool) {
  if (sort_entries) SortSubsetQueue(entries);
  EndpointCaps local_caps;
  EndpointCaps& caps = caps_io != nullptr ? *caps_io : local_caps;
  // Batches of one lane are the serial loop. Approximate mode (lb_scale >
  // 1) must stay serial: a subset the serial loop skips under the scaled
  // bound may hold a candidate *better* than the running best, so a batch
  // admitted against a stale threshold could legitimately return a
  // different (1+ε)-valid answer. Exact mode has no such subsets — skipped
  // means provably worse — which is what makes the pooled path
  // bit-identical.
  const int lanes =
      pool != nullptr && lb_scale == 1.0 ? pool->threads() : 1;
  std::vector<FrechetScratch> scratch(lanes);
  std::vector<SearchState> lane_state(lanes);
  std::vector<MotifStats> lane_stats(lanes);
  std::vector<std::size_t> batch;
  batch.reserve(lanes);
  const auto evaluate = [&](int lane) {
    if (lane >= static_cast<int>(batch.size())) return;
    lane_state[lane] = *state;  // frozen snapshot of threshold/best
    lane_stats[lane] = MotifStats{};
    const SubsetEntry& entry =
        (*entries)[batch[static_cast<std::size_t>(lane)]];
    EvaluateSubset(dist, options, entry.i, entry.j, caps, &lane_state[lane],
                   stats != nullptr ? &lane_stats[lane] : nullptr,
                   &scratch[lane]);
  };

  std::size_t k = 0;
  bool done = false;
  while (!done && k < entries->size()) {
    // Admit the next up-to-`lanes` subsets against the batch-start state:
    // a pooled batch may contain a few subsets the serial order would have
    // pruned — harmless, they only re-derive candidates above the
    // threshold (see header contract).
    batch.clear();
    while (k < entries->size() && static_cast<int>(batch.size()) < lanes) {
      const Admission admission =
          Admit((*entries)[k], state->threshold, lb_scale, sort_entries, caps,
                options.min_length_xi);
      if (admission == Admission::kStop) {
        done = true;
        break;
      }
      if (admission == Admission::kEvaluate) batch.push_back(k);
      ++k;
    }
    if (batch.empty()) continue;

    const double threshold_before = state->threshold;
    if (lanes > 1) {
      pool->RunOnAllLanes(evaluate);
    } else {
      evaluate(0);
    }
    // Deterministic merge in queue order. Record resolves equal-distance
    // candidates to the canonical (i, j, ie, je) minimum, so the merged
    // best is the same candidate the serial loop records no matter how
    // the batch partitioned the evaluations.
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const SearchState& ls = lane_state[b];
      if (ls.found) state->Record(ls.best, ls.best_distance);
      if (ls.threshold < state->threshold) state->threshold = ls.threshold;
      if (stats != nullptr) MergeEvaluationStats(lane_stats[b], stats);
    }
    if (relaxed != nullptr && state->found &&
        state->threshold < threshold_before) {
      TightenCaps(*relaxed, *state, &caps);
    }
  }
}

void SortSubsetQueue(std::vector<SubsetEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const SubsetEntry& a, const SubsetEntry& b) {
              if (a.lb != b.lb) return a.lb < b.lb;
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });
}

std::int64_t CountValidSubsets(const MotifOptions& options, Index n, Index m) {
  const Index xi = options.min_length_xi;
  if (options.variant == MotifVariant::kSingleTrajectory) {
    // i in [0, m-2xi-4], j in [i+xi+2, m-xi-2].
    std::int64_t count = 0;
    for (Index i = 0; i <= m - 2 * xi - 4; ++i) {
      count += (m - xi - 2) - (i + xi + 2) + 1;
    }
    return count;
  }
  const std::int64_t rows = std::max<Index>(0, n - xi - 1);
  const std::int64_t cols = std::max<Index>(0, m - xi - 1);
  return rows * cols;
}

bool IsValidSubsetStart(const MotifOptions& options, Index n, Index m, Index i,
                        Index j) {
  const Index xi = options.min_length_xi;
  if (i < 0 || j < 0) return false;
  if (options.variant == MotifVariant::kSingleTrajectory) {
    return i <= m - 2 * xi - 4 && j >= i + xi + 2 && j <= m - xi - 2;
  }
  return i <= n - xi - 2 && j <= m - xi - 2;
}

Status ValidateApproximationEpsilon(double epsilon) {
  // A NaN ε would compare false everywhere and silently disable pruning.
  if (!std::isfinite(epsilon) || epsilon < 0.0) {
    return Status::InvalidArgument(
        "approximation_epsilon must be finite and >= 0");
  }
  return Status::Ok();
}

std::unique_ptr<ThreadPool> MakeSearchPool(const MotifOptions& options) {
  const int threads = ResolveThreadCount(options.threads);
  return threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

}  // namespace frechet_motif
