#include "motif/subset_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/options.h"
#include "geo/metric.h"
#include "similarity/frechet.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;

MotifOptions Single(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  return o;
}

MotifOptions Cross(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = MotifVariant::kCrossTrajectory;
  return o;
}

TEST(ForEachValidSubsetTest, VisitsExactlyTheValidStarts) {
  const Index n = 18;
  for (const MotifOptions& options : {Single(2), Single(4), Cross(3)}) {
    std::int64_t visited = 0;
    ForEachValidSubset(options, n, n, [&](Index i, Index j) {
      EXPECT_TRUE(IsValidSubsetStart(options, n, n, i, j))
          << "(" << i << "," << j << ")";
      ++visited;
    });
    EXPECT_EQ(visited, CountValidSubsets(options, n, n));
    // Complement check: everything not visited is invalid.
    std::int64_t all_valid = 0;
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (IsValidSubsetStart(options, n, n, i, j)) ++all_valid;
      }
    }
    EXPECT_EQ(all_valid, visited);
  }
}

TEST(ForEachValidSubsetTest, ValidStartsAdmitAtLeastOneCandidate) {
  const Index n = 16;
  const MotifOptions options = Single(3);
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    // The canonical smallest candidate must be valid.
    const Candidate c{i, static_cast<Index>(i + options.min_length_xi + 1), j,
                      static_cast<Index>(j + options.min_length_xi + 1)};
    EXPECT_TRUE(IsValidCandidate(c, options, n, n)) << c;
  });
}

TEST(EvaluateSubsetTest, FindsTheSubsetOptimum) {
  const Index n = 20;
  const Index xi = 2;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 31);
  const MotifOptions options = Single(xi);
  // Evaluate one subset and compare against per-candidate DFD calls.
  const Index i = 1;
  const Index j = 8;
  ASSERT_TRUE(IsValidSubsetStart(options, n, n, i, j));
  SearchState state;
  FrechetScratch scratch;
  EvaluateSubset(dg, options, i, j, nullptr, false, EndpointCaps{}, &state,
                 nullptr, &scratch);
  ASSERT_TRUE(state.found);
  double expect = std::numeric_limits<double>::infinity();
  for (Index ie = i + xi + 1; ie <= j - 1; ++ie) {
    for (Index je = j + xi + 1; je <= n - 1; ++je) {
      expect = std::min(expect,
                        DiscreteFrechetOnRange(dg, i, ie, j, je).value());
    }
  }
  EXPECT_DOUBLE_EQ(state.best_distance, expect);
}

TEST(EvaluateSubsetTest, RespectsEndpointCaps) {
  const Index n = 20;
  const Index xi = 2;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 33);
  const MotifOptions options = Single(xi);
  const Index i = 0;
  const Index j = 6;
  // Cap je at 12: the best must equal the optimum over je <= 12.
  EndpointCaps caps;
  caps.je_cap = 12;
  SearchState state;
  FrechetScratch scratch;
  EvaluateSubset(dg, options, i, j, nullptr, false, caps, &state, nullptr,
                 &scratch);
  double expect = std::numeric_limits<double>::infinity();
  for (Index ie = i + xi + 1; ie <= j - 1; ++ie) {
    for (Index je = j + xi + 1; je <= 12; ++je) {
      expect = std::min(expect,
                        DiscreteFrechetOnRange(dg, i, ie, j, je).value());
    }
  }
  ASSERT_TRUE(state.found);
  EXPECT_DOUBLE_EQ(state.best_distance, expect);
}

TEST(EvaluateSubsetTest, ThresholdSemanticsRecordWithoutPruningOptimum) {
  const Index n = 18;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 35);
  const MotifOptions options = Single(2);
  const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
  // With end-cross pruning against a tight-but-valid threshold, the subset
  // optimum must still be found if it is <= threshold.
  SearchState no_prune;
  FrechetScratch scratch;
  EvaluateSubset(dg, options, 0, 6, nullptr, false, EndpointCaps{}, &no_prune,
                 nullptr, &scratch);
  ASSERT_TRUE(no_prune.found);
  SearchState pruned;
  pruned.threshold = no_prune.best_distance;  // exact optimum as threshold
  EvaluateSubset(dg, options, 0, 6, &rb, true, EndpointCaps{}, &pruned,
                 nullptr, &scratch);
  ASSERT_TRUE(pruned.found);
  EXPECT_DOUBLE_EQ(pruned.best_distance, no_prune.best_distance);
}

/// A provider that implements only the per-cell read, so EvaluateSubset
/// runs over the default RowSpan.
class CellOnlyProvider final : public DistanceProvider {
 public:
  explicit CellOnlyProvider(const DistanceProvider& inner) : inner_(inner) {}
  double Distance(Index i, Index j) const override {
    return inner_.Distance(i, j);
  }
  Index rows() const override { return inner_.rows(); }
  Index cols() const override { return inner_.cols(); }
  std::size_t MemoryBytes() const override { return 0; }

 private:
  const DistanceProvider& inner_;
};

TEST(EvaluateSubsetTest, EveryProviderGivesTheSameSearch) {
  // One planar walk presented four ways: the dense matrix, a ring appended
  // past capacity so both heads sit mid-buffer (DP rows cross the column
  // seam), the on-the-fly provider, and the default RowSpan.
  const Index n = 40;
  const Index extra = 7;  // points appended before the window: heads -> 7
  const Trajectory feed = MakePlanarWalk(n + extra, 53);
  const Trajectory s(std::vector<Point>(feed.points().begin() + extra,
                                        feed.points().end()));
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  RingDistanceMatrix ring(n, n);
  for (Index p = 0; p < feed.size(); ++p) {
    const Index first = std::max<Index>(0, p - n + 1);  // after eviction
    std::vector<double> to_window;
    for (Index k = first; k < p; ++k) {
      to_window.push_back(Euclidean().Distance(feed[p], feed[k]));
    }
    ring.AppendPoint(to_window.data(), to_window.data(), 0.0);
  }
  ASSERT_EQ(ring.row_head(), extra);
  ASSERT_EQ(ring.col_head(), extra);
  const OnTheFlyDistance fly(s, Euclidean());
  const CellOnlyProvider cell_only(dg);
  const DistanceProvider* providers[] = {&ring, &fly, &cell_only};

  const MotifOptions options = Single(3);
  const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
  EndpointCaps caps;
  caps.ie_cap = 24;
  caps.je_cap = 33;
  // The tightest external threshold a group upper bound could set: the
  // motif distance itself.
  SearchState motif;
  FrechetScratch motif_scratch;
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    EvaluateSubset(dg, options, i, j, nullptr, false, EndpointCaps{}, &motif,
                   nullptr, &motif_scratch);
  });
  const double threshold = motif.threshold;

  const auto evaluate = [&](const DistanceProvider& dist, Index i, Index j,
                            MotifStats* stats) {
    SearchState state;
    state.threshold = threshold;
    FrechetScratch scratch;
    EvaluateSubset(dist, options, i, j, &rb, /*use_end_cross=*/true, caps,
                   &state, stats, &scratch);
    return state;
  };
  MotifStats want_stats;
  MotifStats got_stats[3];
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    const SearchState want = evaluate(dg, i, j, &want_stats);
    for (int k = 0; k < 3; ++k) {
      const SearchState got = evaluate(*providers[k], i, j, &got_stats[k]);
      EXPECT_EQ(got.found, want.found) << "provider " << k;
      EXPECT_EQ(got.best, want.best) << "provider " << k;
      EXPECT_EQ(got.best_distance, want.best_distance) << "provider " << k;
      EXPECT_EQ(got.threshold, want.threshold) << "provider " << k;
    }
  });
  EXPECT_GT(want_stats.bsf_updates, 0);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(got_stats[k].subsets_evaluated, want_stats.subsets_evaluated);
    EXPECT_EQ(got_stats[k].dfd_cells_computed, want_stats.dfd_cells_computed);
    EXPECT_EQ(got_stats[k].bsf_updates, want_stats.bsf_updates);
  }
}

TEST(SearchStateTest, RecordUpdatesBestAndThreshold) {
  SearchState s;
  s.Record(Candidate{0, 5, 7, 12}, 10.0);
  EXPECT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.best_distance, 10.0);
  EXPECT_DOUBLE_EQ(s.threshold, 10.0);
  s.Record(Candidate{1, 6, 8, 13}, 12.0);  // worse: no change
  EXPECT_DOUBLE_EQ(s.best_distance, 10.0);
  s.Record(Candidate{2, 7, 9, 14}, 8.0);  // better: both update
  EXPECT_DOUBLE_EQ(s.best_distance, 8.0);
  EXPECT_DOUBLE_EQ(s.threshold, 8.0);
  EXPECT_EQ(s.best.i, 2);
}

TEST(SearchStateTest, EqualDistancesResolveToCanonicalCandidateOrder) {
  // On an exact tie, Record keeps the lexicographically smaller
  // (i, j, ie, je) — regardless of arrival order.
  SearchState first_small;
  first_small.Record(Candidate{1, 6, 8, 13}, 10.0);
  first_small.Record(Candidate{2, 7, 9, 14}, 10.0);  // lex larger: ignored
  EXPECT_EQ(first_small.best.i, 1);

  SearchState first_large;
  first_large.Record(Candidate{2, 7, 9, 14}, 10.0);
  first_large.Record(Candidate{1, 6, 8, 13}, 10.0);  // lex smaller: wins
  EXPECT_EQ(first_large.best.i, 1);
  EXPECT_DOUBLE_EQ(first_large.best_distance, 10.0);

  // The order is (i, j, ie, je) — start pair before endpoints.
  SearchState same_start;
  same_start.Record(Candidate{1, 9, 8, 13}, 10.0);
  same_start.Record(Candidate{1, 6, 8, 14}, 10.0);  // smaller ie wins
  EXPECT_EQ(same_start.best.ie, 6);
  same_start.Record(Candidate{1, 5, 7, 14}, 10.0);  // smaller j beats ie
  EXPECT_EQ(same_start.best.j, 7);
}

TEST(SearchStateTest, CandidateOrderIsShiftInvariant) {
  // The carried path of the streaming engine compares a shifted previous
  // candidate against fresh ones; shifting both sides by the same delta
  // must never change the order.
  const Candidate a{3, 9, 12, 20};
  const Candidate b{3, 9, 13, 19};
  ASSERT_TRUE(CandidateOrderedBefore(a, b));
  Candidate a_shift = a;
  Candidate b_shift = b;
  for (Candidate* c : {&a_shift, &b_shift}) {
    c->i -= 2;
    c->ie -= 2;
    c->j -= 2;
    c->je -= 2;
  }
  EXPECT_TRUE(CandidateOrderedBefore(a_shift, b_shift));
  EXPECT_FALSE(CandidateOrderedBefore(b_shift, a_shift));
}

TEST(ExactTies, AllPathsReportTheCanonicalAchiever) {
  // A constructed matrix with two exactly tied optimal candidates in
  // different subsets: constant distance c everywhere except two zero
  // bottlenecks... simpler: a constant matrix ties *every* candidate at
  // the same DFD, so every algorithm must report the very first subset's
  // first candidate under the canonical order.
  const Index n = 14;
  const Index xi = 2;
  std::vector<double> values(static_cast<std::size_t>(n) * n, 7.0);
  for (Index i = 0; i < n; ++i) {
    values[static_cast<std::size_t>(i) * n + i] = 0.0;
  }
  const DistanceMatrix dg =
      DistanceMatrix::FromValues(n, n, std::move(values)).value();
  const MotifOptions options = Single(xi);

  const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
  std::vector<SubsetEntry> entries;
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  SearchState state;
  RunSubsetQueue(dg, options, &entries, &rb, /*use_end_cross=*/true,
                 /*sort_entries=*/true, &state, nullptr);
  ASSERT_TRUE(state.found);
  EXPECT_DOUBLE_EQ(7.0, state.best_distance);
  // The canonical minimum: the lex-smallest valid candidate overall.
  EXPECT_EQ((Candidate{0, xi + 1, xi + 2, 2 * xi + 3}), state.best);
}

TEST(SearchStateTest, ExternalThresholdDoesNotBlockRecording) {
  SearchState s;
  s.threshold = 5.0;  // e.g. from a group upper bound
  s.Record(Candidate{0, 5, 7, 12}, 6.0);  // worse than threshold but first
  EXPECT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.best_distance, 6.0);
  EXPECT_DOUBLE_EQ(s.threshold, 5.0);  // threshold unchanged
}

TEST(RunSubsetQueueTest, SortedAndUnsortedAgree) {
  const Index n = 30;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 41);
  const MotifOptions options = Single(3);
  const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
  auto build_entries = [&] {
    std::vector<SubsetEntry> entries;
    ForEachValidSubset(options, n, n, [&](Index i, Index j) {
      entries.push_back(SubsetEntry{
          std::max(dg.Distance(i, j), rb.StartCross(i, j)), i, j});
    });
    return entries;
  };
  std::vector<SubsetEntry> sorted_entries = build_entries();
  std::vector<SubsetEntry> scan_entries = build_entries();
  SearchState sorted_state;
  SearchState scan_state;
  RunSubsetQueue(dg, options, &sorted_entries, &rb, true, true, &sorted_state,
                 nullptr);
  RunSubsetQueue(dg, options, &scan_entries, &rb, true, false, &scan_state,
                 nullptr);
  ASSERT_TRUE(sorted_state.found);
  ASSERT_TRUE(scan_state.found);
  EXPECT_DOUBLE_EQ(sorted_state.best_distance, scan_state.best_distance);
}

}  // namespace
}  // namespace frechet_motif
