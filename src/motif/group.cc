#include "motif/group.h"

#include <algorithm>
#include <limits>

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

}  // namespace

Grouping Grouping::Build(const DistanceProvider& dist,
                         const MotifOptions& options, Index tau) {
  Grouping g;
  g.tau_ = tau;
  g.n_ = dist.rows();
  g.m_ = dist.cols();
  g.nu_ = (g.n_ + tau - 1) / tau;
  g.nv_ = (g.m_ + tau - 1) / tau;
  g.options_ = options;
  g.window_ = (options.min_length_xi + 1) / tau;

  // Ground-distance envelopes: one block scan per group pair (O(n·m) total).
  g.dmin_.assign(static_cast<std::size_t>(g.nu_) * g.nv_, kInf);
  g.dmax_.assign(static_cast<std::size_t>(g.nu_) * g.nv_, -kInf);
  for (Index u = 0; u < g.nu_; ++u) {
    for (Index v = 0; v < g.nv_; ++v) {
      double lo = kInf;
      double hi = -kInf;
      for (Index i = g.RowFirst(u); i <= g.RowLast(u); ++i) {
        for (Index j = g.ColFirst(v); j <= g.ColLast(v); ++j) {
          const double d = dist.Distance(i, j);
          lo = std::min(lo, d);
          hi = std::max(hi, d);
        }
      }
      g.dmin_[static_cast<std::size_t>(u) * g.nv_ + v] = lo;
      g.dmax_[static_cast<std::size_t>(u) * g.nv_ + v] = hi;
    }
  }

  // Group-level relaxed cross bounds over the dmin envelope, mirroring
  // RelaxedBounds at point granularity (Section 5.2 "relaxed lower bounds
  // for groups").
  const bool single = options.variant == MotifVariant::kSingleTrajectory;
  g.grmin_.assign(g.nv_, kInf);
  for (Index v = 0; v + 1 <= g.nv_ - 1; ++v) {
    const Index u_hi = single ? v : g.nu_ - 1;
    double best = kInf;
    for (Index u = 0; u <= std::min(u_hi, g.nu_ - 1); ++u) {
      best = std::min(best, g.Dmin(u, v + 1));
    }
    g.grmin_[v] = best;
  }
  g.gcmin_.assign(g.nu_, kInf);
  for (Index u = 0; u + 1 <= g.nu_ - 1; ++u) {
    double best = kInf;
    for (Index v = 0; v <= g.nv_ - 1; ++v) {
      best = std::min(best, g.Dmin(u + 1, v));
    }
    g.gcmin_[u] = best;
  }
  if (g.window_ >= 1) {
    g.gband_row_ = SlidingWindowMax(g.grmin_, g.window_);
    g.gband_col_ = SlidingWindowMax(g.gcmin_, g.window_);
  }
  return g;
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
                         double* gub) const {
  const bool single = options_.variant == MotifVariant::kSingleTrajectory;
  const Index xi = options_.min_length_xi;
  const Index ue_hi = single ? std::min(v, nu_ - 1) : nu_ - 1;
  const Index width = nv_ - v;  // ve in [v, nv_-1]

  *glb = kInf;
  *gub = kInf;
  if (ue_hi < u || width <= 0) return;

  // Qualification rules (see header): GLB cells must be reachable end
  // groups of *some* valid candidate; GUB cells must guarantee a valid
  // candidate for *every* start in g_u x g_v.
  auto glb_qualifies = [&](Index ue, Index ve) {
    return ue >= u + window_ && ve >= v + window_;
  };
  // Witness candidate for the upper bound: (i=RowFirst(u), ie=RowLast(ue),
  // j=ColFirst(v), je=ColLast(ve)); by Lemma 3 its DFD is <= fmax(ue,ve),
  // so fmax is a legitimate threshold whenever that witness is valid.
  auto gub_qualifies = [&](Index ue, Index ve) {
    if (RowLast(ue) - RowFirst(u) < xi + 1) return false;
    if (ColLast(ve) - ColFirst(v) < xi + 1) return false;
    if (single && ue > v - 1) return false;
    return true;
  };

  // Rolling rows for the twin dynamic programs over dmin / dmax
  // (Definition 5).
  std::vector<double> fmin_prev(width);
  std::vector<double> fmin_curr(width);
  std::vector<double> fmax_prev(width);
  std::vector<double> fmax_curr(width);

  fmin_prev[0] = Dmin(u, v);
  fmax_prev[0] = Dmax(u, v);
  for (Index q = 1; q < width; ++q) {
    fmin_prev[q] = std::max(fmin_prev[q - 1], Dmin(u, v + q));
    fmax_prev[q] = std::max(fmax_prev[q - 1], Dmax(u, v + q));
  }
  double row_min = kInf;
  for (Index q = 0; q < width; ++q) {
    if (glb_qualifies(u, v + q)) *glb = std::min(*glb, fmin_prev[q]);
    if (gub_qualifies(u, v + q)) *gub = std::min(*gub, fmax_prev[q]);
    row_min = std::min(row_min, fmin_prev[q]);
  }
  // Early termination: every dFmin cell dominates the min of its
  // predecessors, so once a whole frontier row exceeds the threshold all
  // deeper cells do too — they can neither flip the pruning decision nor
  // produce a qualifying cell below the threshold.
  if (row_min > threshold) return;

  for (Index ue = u + 1; ue <= ue_hi; ++ue) {
    fmin_curr[0] = std::max(fmin_prev[0], Dmin(ue, v));
    fmax_curr[0] = std::max(fmax_prev[0], Dmax(ue, v));
    for (Index q = 1; q < width; ++q) {
      fmin_curr[q] =
          std::max(Dmin(ue, v + q), std::min({fmin_prev[q], fmin_prev[q - 1],
                                              fmin_curr[q - 1]}));
      fmax_curr[q] =
          std::max(Dmax(ue, v + q), std::min({fmax_prev[q], fmax_prev[q - 1],
                                              fmax_curr[q - 1]}));
    }
    row_min = kInf;
    for (Index q = 0; q < width; ++q) {
      if (glb_qualifies(ue, v + q)) *glb = std::min(*glb, fmin_curr[q]);
      if (gub_qualifies(ue, v + q)) *gub = std::min(*gub, fmax_curr[q]);
      row_min = std::min(row_min, fmin_curr[q]);
    }
    if (row_min > threshold) return;
    std::swap(fmin_prev, fmin_curr);
    std::swap(fmax_prev, fmax_curr);
  }
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
    grouping.DfdBounds(e.u, e.v, *threshold, &glb, &gub);
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
