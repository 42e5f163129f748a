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
                    Index i, Index j, const RelaxedBounds* relaxed,
                    bool use_end_cross, const EndpointCaps& caps,
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

  std::vector<double>& prev = scratch->prev;
  std::vector<double>& curr = scratch->row;
  // Guard each buffer on its own: other kernels grow scratch->row on
  // their own, and the swap below exchanges the members, so their sizes
  // can legitimately differ on entry.
  for (std::vector<double>* v : {&prev, &curr, &scratch->dist_row}) {
    if (static_cast<Index>(v->size()) < width) v->resize(width);
  }
  // The row view: d = dG(r, j .. je_max), one provider call per DP row.
  double* const buf = scratch->dist_row.data();

  std::int64_t cells = 0;

  // Init row ie = i: dF(i, i, j, je) = running max of dG(i, j..je).
  const double* d = dist.RowSpan(i, j, width, buf);
  double running = d[0];
  prev[0] = running;
  for (Index q = 1; q < width; ++q) {
    if (d[q] > running) running = d[q];
    prev[q] = running;
  }
  cells += width;

  const bool pruning = use_end_cross && relaxed != nullptr;

  for (Index ie = i + 1; ie <= ie_max; ++ie) {
    d = dist.RowSpan(ie, j, width, buf);
    const bool endpoint_row = ie >= i + xi + 1;
    Index live = 0;  // cells of this row that are not frozen
    // First column je = j (never a valid endpoint: je must exceed j+xi).
    curr[0] = prev[0] == kInf ? kInf : std::max(prev[0], d[0]);
    if (curr[0] != kInf && pruning && relaxed->Cmin(ie) > state->threshold &&
        relaxed->Rmin(j) > state->threshold) {
      curr[0] = kInf;
    }
    if (curr[0] != kInf) ++live;
    for (Index q = 1; q < width; ++q) {
      const double best_predecessor =
          std::min({prev[q], prev[q - 1], curr[q - 1]});
      double v;
      if (best_predecessor == kInf) {
        v = kInf;  // unreachable through frozen frontier
      } else {
        v = std::max(d[q], best_predecessor);
      }
      const Index je = j + q;
      if (v != kInf) {
        if (endpoint_row && q >= xi + 1) {
          // (i, ie, j, je) is a valid candidate with exact DFD v.
          if (v < state->best_distance && stats != nullptr) {
            ++stats->bsf_updates;
          }
          state->Record(Candidate{i, ie, j, je}, v);
        }
        // End-cell cross bound (Eq. 9): freeze the cell when every
        // continuation is provably worse than the threshold.
        if (pruning && relaxed->Cmin(ie) > state->threshold &&
            relaxed->Rmin(je) > state->threshold) {
          v = kInf;
        }
      }
      if (v != kInf) ++live;
      curr[q] = v;
    }
    cells += width;
    if (live == 0) {
      // The whole frontier is frozen; no deeper row can be reached.
      break;
    }
    std::swap(prev, curr);
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
                    const RelaxedBounds* relaxed, bool use_end_cross,
                    bool sort_entries, SearchState* state, MotifStats* stats,
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
    EvaluateSubset(dist, options, entry.i, entry.j, relaxed, use_end_cross,
                   caps, &lane_state[lane],
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
