#include "motif/group.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "motif/relaxed_bounds.h"

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A group pair queued by PruneGroupPairs, with its pattern bound.
struct GroupEntry {
  double lb = 0.0;
  Index u = 0;
  Index v = 0;
};

/// Folds one row of `count` values into consecutive blocks of `width`:
/// lo[b] = min(lo[b], lo_src over block b) and hi[b] likewise with max
/// over hi_src. The trailing block may be partial.
void FoldRow(const double* lo_src, const double* hi_src, Index count,
             Index width, double* lo, double* hi) {
  for (Index b = 0, c = 0; c < count; ++b) {
    const Index end = std::min(c + width, count);
    double a = lo[b];
    double z = hi[b];
    for (; c < end; ++c) {
      a = std::min(a, lo_src[c]);
      z = std::max(z, hi_src[c]);
    }
    lo[b] = a;
    hi[b] = z;
  }
}

}  // namespace

Grouping::Grouping(const MotifOptions& options, Index tau, Index n, Index m)
    : tau_(tau),
      n_(n),
      m_(m),
      nu_((n + tau - 1) / tau),
      nv_((m + tau - 1) / tau),
      window_((options.min_length_xi + 1) / tau),
      options_(options),
      dmin_(static_cast<std::size_t>(nu_) * nv_, kInf),
      dmax_(static_cast<std::size_t>(nu_) * nv_, -kInf) {}

Grouping Grouping::Build(const DistanceProvider& dist,
                         const MotifOptions& options, Index tau) {
  Grouping g(options, tau, dist.rows(), dist.cols());
  // Ground-distance envelopes: each row of dG is read once and folds into
  // its row group's per-column-group min/max (O(n·m) total).
  std::vector<double> buf(static_cast<std::size_t>(g.m_));
  for (Index i = 0; i < g.n_; ++i) {
    const double* row = dist.RowSpan(i, 0, g.m_, buf.data());
    const std::size_t at = static_cast<std::size_t>(i / tau) * g.nv_;
    FoldRow(row, row, g.m_, tau, &g.dmin_[at], &g.dmax_[at]);
  }
  g.BuildGroupBounds();
  return g;
}

Grouping Grouping::Coarsen(const Grouping& fine, Index tau) {
  Grouping g(fine.options_, tau, fine.n_, fine.m_);
  // Coarse group U is exactly fine groups [U·k, (U+1)·k) (the last one
  // clipped), so its envelopes are the block min/max of theirs.
  const Index k = tau / fine.tau_;
  for (Index fu = 0; fu < fine.nu_; ++fu) {
    const std::size_t from = static_cast<std::size_t>(fu) * fine.nv_;
    const std::size_t at = static_cast<std::size_t>(fu / k) * g.nv_;
    FoldRow(&fine.dmin_[from], &fine.dmax_[from], fine.nv_, k, &g.dmin_[at],
            &g.dmax_[at]);
  }
  g.BuildGroupBounds();
  return g;
}

void Grouping::BuildGroupBounds() {
  // Group-level relaxed cross bounds over the dmin envelope, mirroring
  // RelaxedBounds at point granularity (Section 5.2 "relaxed lower bounds
  // for groups"), in one row-major pass: gcmin_[u-1] is row u's minimum,
  // and row u folds into grmin_[v-1] for the columns v its rows may cross
  // (v >= u+1 in single mode, every v in cross mode).
  const bool single = options_.variant == MotifVariant::kSingleTrajectory;
  grmin_.assign(nv_, kInf);
  gcmin_.assign(nu_, kInf);
  for (Index u = 0; u < nu_; ++u) {
    const double* row = &dmin_[static_cast<std::size_t>(u) * nv_];
    for (Index v = single ? u + 1 : 1; v < nv_; ++v) {
      grmin_[v - 1] = std::min(grmin_[v - 1], row[v]);
    }
    if (u == 0) continue;
    double best = kInf;
    for (Index v = 0; v < nv_; ++v) best = std::min(best, row[v]);
    gcmin_[u - 1] = best;
  }
  if (window_ >= 1) {
    gband_row_ = SlidingWindowMax(grmin_, window_);
    gband_col_ = SlidingWindowMax(gcmin_, window_);
  }
}

double Grouping::CrossLb(Index u, Index v) const {
  // A candidate's alignment path is only guaranteed to enter the
  // neighbouring group when the minimum length ξ spans at least one full
  // group, i.e. window_ >= 1 (see class comment).
  if (window_ < 1) return -kInf;
  return std::max(gcmin_[u], grmin_[v]);
}

double Grouping::BandLb(Index u, Index v) const {
  if (window_ < 1) return -kInf;
  return std::max(gband_row_[v], gband_col_[u]);
}

double Grouping::PatternLb(Index u, Index v) const {
  return std::max(CellLb(u, v), std::max(CrossLb(u, v), BandLb(u, v)));
}

bool Grouping::AdmitsCandidate(Index u, Index v) const {
  const Index xi = options_.min_length_xi;
  if (options_.variant == MotifVariant::kSingleTrajectory) {
    const Index i_lo = RowFirst(u);
    const Index i_hi = std::min(RowLast(u), m_ - 2 * xi - 4);
    if (i_hi < i_lo) return false;
    const Index j_hi = std::min(ColLast(v), m_ - xi - 2);
    const Index j_lo = std::max(ColFirst(v), i_lo + xi + 2);
    return j_hi >= j_lo;
  }
  const Index i_hi = std::min(RowLast(u), n_ - xi - 2);
  const Index j_hi = std::min(ColLast(v), m_ - xi - 2);
  return i_hi >= RowFirst(u) && j_hi >= ColFirst(v);
}

void Grouping::DfdBounds(Index u, Index v, double threshold, double* glb,
                         double* gub, DfdScratch* scratch) const {
  const bool single = options_.variant == MotifVariant::kSingleTrajectory;
  const Index xi = options_.min_length_xi;
  const Index ue_hi = single ? std::min(v, nu_ - 1) : nu_ - 1;
  const Index width = nv_ - v;  // ve in [v, nv_-1]

  *glb = kInf;
  *gub = kInf;
  if (ue_hi < u || width <= 0) return;

  // Qualification rules (see header): GLB cells must be reachable end
  // groups of *some* valid candidate, i.e. ue >= u+window_ and
  // ve >= v+window_. GUB cells must guarantee a valid candidate for
  // *every* start in g_u x g_v: the witness (i=RowFirst(u),
  // ie=RowLast(ue), j=ColFirst(v), je=ColLast(ve)) has DFD <= fmax(ue,ve)
  // by Lemma 3, so fmax is a legitimate threshold whenever that witness
  // is valid. Both rules split into a row test and a column suffix
  // q >= lb_cols / q >= ub_cols (ve = v+q).
  const Index lb_cols = std::min(window_, width);
  Index ub_cols = 0;
  while (ub_cols < width && ColLast(v + ub_cols) - ColFirst(v) < xi + 1) {
    ++ub_cols;
  }
  const auto gub_row_qualifies = [&](Index ue) {
    return RowLast(ue) - RowFirst(u) >= xi + 1 && !(single && ue > v - 1);
  };

  // Rolling rows for the twin dynamic programs over dmin / dmax
  // (Definition 5). Every slot is written before it is read.
  DfdScratch local;
  std::vector<double>& rows = scratch != nullptr ? scratch->rows : local.rows;
  if (rows.size() < 4 * static_cast<std::size_t>(width)) {
    rows.resize(4 * static_cast<std::size_t>(width));
  }
  double* fmin_prev = rows.data();
  double* fmin_curr = fmin_prev + width;
  double* fmax_prev = fmin_curr + width;
  double* fmax_curr = fmax_prev + width;

  // Folds DP row ue (in fmin_curr / fmax_curr) into the bounds and
  // returns its dFmin minimum.
  double lb = kInf;
  double ub = kInf;
  const auto fold = [&](Index ue) {
    const Index lb_from = ue >= u + window_ ? lb_cols : width;
    const Index ub_from = gub_row_qualifies(ue) ? ub_cols : width;
    double row_min = kInf;
    for (Index q = 0; q < width; ++q) {
      row_min = std::min(row_min, fmin_curr[q]);
      if (q >= lb_from) lb = std::min(lb, fmin_curr[q]);
      if (q >= ub_from) ub = std::min(ub, fmax_curr[q]);
    }
    return row_min;
  };

  const double* dmin = &dmin_[static_cast<std::size_t>(u) * nv_ + v];
  const double* dmax = &dmax_[static_cast<std::size_t>(u) * nv_ + v];
  double left_min = fmin_curr[0] = dmin[0];
  double left_max = fmax_curr[0] = dmax[0];
  for (Index q = 1; q < width; ++q) {
    left_min = fmin_curr[q] = std::max(left_min, dmin[q]);
    left_max = fmax_curr[q] = std::max(left_max, dmax[q]);
  }
  // Early termination: every dFmin cell dominates the min of its
  // predecessors, so once a whole frontier row exceeds the threshold all
  // deeper cells do too — they can neither flip the pruning decision nor
  // produce a qualifying cell below the threshold.
  bool cut = fold(u) > threshold;
  for (Index ue = u + 1; ue <= ue_hi && !cut; ++ue) {
    std::swap(fmin_prev, fmin_curr);
    std::swap(fmax_prev, fmax_curr);
    dmin += nv_;
    dmax += nv_;
    left_min = fmin_curr[0] = std::max(fmin_prev[0], dmin[0]);
    left_max = fmax_curr[0] = std::max(fmax_prev[0], dmax[0]);
    for (Index q = 1; q < width; ++q) {
      left_min = fmin_curr[q] = std::max(
          dmin[q], std::min({fmin_prev[q], fmin_prev[q - 1], left_min}));
      left_max = fmax_curr[q] = std::max(
          dmax[q], std::min({fmax_prev[q], fmax_prev[q - 1], left_max}));
    }
    cut = fold(ue) > threshold;
  }
  *glb = lb;
  *gub = ub;
}

std::size_t Grouping::MemoryBytes() const {
  return (dmin_.capacity() + dmax_.capacity() + grmin_.capacity() +
          gcmin_.capacity() + gband_row_.capacity() + gband_col_.capacity()) *
         sizeof(double);
}

std::vector<std::pair<Index, Index>> PruneGroupPairs(
    const Grouping& grouping, const std::vector<std::pair<Index, Index>>* pairs,
    double lb_scale, double* threshold, MotifStats* stats) {
  std::vector<GroupEntry> entries;
  const auto queue = [&](Index u, Index v) {
    if (!grouping.AdmitsCandidate(u, v)) return;
    entries.push_back(GroupEntry{grouping.PatternLb(u, v), u, v});
  };
  if (pairs != nullptr) {
    for (const auto& [u, v] : *pairs) queue(u, v);
  } else {
    for (Index u = 0; u < grouping.num_row_groups(); ++u) {
      for (Index v = 0; v < grouping.num_col_groups(); ++v) queue(u, v);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const GroupEntry& a, const GroupEntry& b) {
              return a.lb < b.lb;
            });
  const ScopedAllocation entries_mem(
      stats != nullptr ? &stats->memory : nullptr,
      entries.capacity() * sizeof(GroupEntry));

  std::vector<std::pair<Index, Index>> survivors;
  Grouping::DfdScratch scratch;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const GroupEntry& e = entries[k];
    if (stats != nullptr) ++stats->group_pairs_total;
    if (e.lb * lb_scale > *threshold) {
      // Sorted queue: every remaining pattern bound is at least as large.
      if (stats != nullptr) {
        stats->group_pairs_pruned_pattern +=
            static_cast<std::int64_t>(entries.size() - k);
        stats->group_pairs_total +=
            static_cast<std::int64_t>(entries.size() - k - 1);
      }
      break;
    }
    double glb = 0.0;
    double gub = 0.0;
    grouping.DfdBounds(e.u, e.v, *threshold, &glb, &gub, &scratch);
    if (gub * lb_scale < *threshold) {
      *threshold = gub * lb_scale;
      if (stats != nullptr) ++stats->gub_tightenings;
    }
    if (glb * lb_scale > *threshold) {
      if (stats != nullptr) ++stats->group_pairs_pruned_dfd_bound;
      continue;
    }
    survivors.emplace_back(e.u, e.v);
  }
  return survivors;
}

}  // namespace frechet_motif
