// Parity suite for the PR-2 performance work: the monomorphized
// DistanceMatrix fast path, the threshold early-exit contract, and the
// thread-pooled search must all return results identical to the canonical
// serial / virtual-dispatch implementations — on adversarial random
// matrices, on the paper's Figure 5 worked example, and on the
// planted-motif generator.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/distance_matrix.h"
#include "data/datasets.h"
#include "data/planted.h"
#include "geo/metric.h"
#include "join/similarity_join.h"
#include "motif/brute_dp.h"
#include "motif/btm.h"
#include "motif/gtm.h"
#include "motif/gtm_star.h"
#include "motif/subset_search.h"
#include "motif/top_k.h"
#include "similarity/frechet.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;
using testing_util::MakeTiedCrossMatrix;
using testing_util::MakeTiedSelfMatrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Monomorphized fast path vs generic virtual-dispatch kernel.
// ---------------------------------------------------------------------------

TEST(FastPathParityTest, MatchesGenericOnRandomRanges) {
  const Index n = 40;
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n, 1234);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Index i = static_cast<Index>(rng.NextInt(0, n - 1));
    const Index ie = static_cast<Index>(rng.NextInt(i, n - 1));
    const Index j = static_cast<Index>(rng.NextInt(0, n - 1));
    const Index je = static_cast<Index>(rng.NextInt(j, n - 1));
    const double fast = DiscreteFrechetOnRange(dg, i, ie, j, je).value();
    const double generic =
        DiscreteFrechetOnRangeGeneric(dg, i, ie, j, je).value();
    // Same recurrence, same operation order: bit-identical, not just close.
    EXPECT_EQ(fast, generic) << "range (" << i << "," << ie << "," << j << ","
                             << je << ")";
  }
}

TEST(FastPathParityTest, ProviderOverloadDispatchesToMatrixPath) {
  // The DistanceProvider& overload must agree with both explicit paths.
  const DistanceMatrix dg = MakeRandomSelfMatrix(24, 77);
  const DistanceProvider& as_provider = dg;
  for (Index span : {3, 7, 15}) {
    const double via_provider =
        DiscreteFrechetOnRange(as_provider, 0, span, 4, 4 + span).value();
    const double via_matrix =
        DiscreteFrechetOnRange(dg, 0, span, 4, 4 + span).value();
    EXPECT_EQ(via_provider, via_matrix);
  }
}

TEST(FastPathParityTest, WorkedExampleFigure5Values) {
  // The hand-derived dF values of the Figure 5 worked example, through the
  // monomorphized path, the generic path and the scratch-reusing path.
  // clang-format off
  const std::vector<double> values = {
      0, 4, 6, 5, 5, 3, 9, 7,
      4, 0, 3, 2, 2, 7, 4, 8,
      6, 3, 0, 5, 8, 1, 6, 2,
      5, 2, 5, 0, 6, 9, 3, 5,
      5, 2, 8, 6, 0, 4, 7, 6,
      3, 7, 1, 9, 4, 0, 5, 2,
      9, 4, 6, 3, 7, 5, 0, 3,
      7, 8, 2, 5, 6, 2, 3, 0,
  };
  // clang-format on
  const DistanceMatrix dg = DistanceMatrix::FromValues(8, 8, values).value();
  FrechetScratch scratch;
  const struct {
    Index i, ie, j, je;
    double expect;
  } cases[] = {
      {0, 0, 4, 5, 5.0}, {0, 1, 4, 5, 7.0}, {0, 1, 4, 6, 5.0},
      {0, 2, 4, 5, 5.0}, {0, 2, 4, 6, 6.0},
  };
  for (const auto& c : cases) {
    EXPECT_DOUBLE_EQ(
        DiscreteFrechetOnRange(dg, c.i, c.ie, c.j, c.je).value(), c.expect);
    EXPECT_DOUBLE_EQ(
        DiscreteFrechetOnRangeGeneric(dg, c.i, c.ie, c.j, c.je).value(),
        c.expect);
    EXPECT_DOUBLE_EQ(DiscreteFrechetOnRange(dg, c.i, c.ie, c.j, c.je,
                                            kNoFrechetThreshold, &scratch)
                         .value(),
                     c.expect);
  }
}

TEST(FastPathParityTest, ScratchSharedAcrossKernelsStaysConsistent) {
  // One FrechetScratch is documented as shareable across all kernels; mix
  // them with interleaved widths (including the subset DP, whose row swap
  // can leave the two buffers with different sizes) and check the answers
  // still match fresh-scratch runs.
  const Index n = 64;
  const DistanceMatrix dg = MakeRandomSelfMatrix(n, 3131);
  MotifOptions options;
  options.min_length_xi = 2;
  FrechetScratch shared;

  SearchState narrow;
  EvaluateSubset(dg, options, 0, 40, nullptr, false, EndpointCaps{}, &narrow,
                 nullptr, &shared);  // width 24
  const double wide_range =
      DiscreteFrechetOnRange(dg, 0, 50, 5, 60, kNoFrechetThreshold, &shared)
          .value();  // grows row past prev
  SearchState mid;
  EvaluateSubset(dg, options, 0, 30, nullptr, false, EndpointCaps{}, &mid,
                 nullptr, &shared);  // width 34, after a swap-induced skew

  FrechetScratch fresh1, fresh2;
  SearchState narrow_ref, mid_ref;
  EvaluateSubset(dg, options, 0, 40, nullptr, false, EndpointCaps{},
                 &narrow_ref, nullptr, &fresh1);
  EvaluateSubset(dg, options, 0, 30, nullptr, false, EndpointCaps{}, &mid_ref,
                 nullptr, &fresh2);
  EXPECT_EQ(narrow.best_distance, narrow_ref.best_distance);
  EXPECT_EQ(mid.best_distance, mid_ref.best_distance);
  EXPECT_EQ(wide_range, DiscreteFrechetOnRange(dg, 0, 50, 5, 60).value());
}

// ---------------------------------------------------------------------------
// Threshold early-exit contract.
// ---------------------------------------------------------------------------

TEST(ThresholdEarlyExitTest, ExactBelowThresholdLowerBoundAbove) {
  const Index n = 36;
  const DistanceMatrix dg = MakeRandomCrossMatrix(n, n, 555);
  Rng rng(7);
  int early_exits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Index i = static_cast<Index>(rng.NextInt(0, n - 6));
    const Index ie = static_cast<Index>(rng.NextInt(i + 2, n - 1));
    const Index j = static_cast<Index>(rng.NextInt(0, n - 6));
    const Index je = static_cast<Index>(rng.NextInt(j + 2, n - 1));
    const double exact = DiscreteFrechetOnRange(dg, i, ie, j, je).value();
    const double threshold = rng.NextDouble(0.0, 120.0);
    const double bounded =
        DiscreteFrechetOnRange(dg, i, ie, j, je, threshold).value();
    if (bounded <= threshold) {
      // Contract: a value within the threshold is the exact DFD.
      EXPECT_EQ(bounded, exact);
    } else {
      // Contract: a value above the threshold is a lower bound on the DFD
      // (and the exact DFD is indeed above the threshold).
      ++early_exits;
      EXPECT_GT(exact, threshold);
      EXPECT_LE(bounded, exact);
    }
    // Both branches agree on which side of the threshold the DFD lies —
    // the only property threshold-pruning callers rely on.
    EXPECT_EQ(bounded > threshold, exact > threshold);
  }
  // The random thresholds must actually exercise the early-exit branch.
  EXPECT_GT(early_exits, 20);
}

TEST(ThresholdEarlyExitTest, GenericPathHonorsTheSameContract) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(30, 4242);
  const double exact = DiscreteFrechetOnRangeGeneric(dg, 0, 20, 5, 28).value();
  const double tight =
      DiscreteFrechetOnRangeGeneric(dg, 0, 20, 5, 28, exact).value();
  EXPECT_EQ(tight, exact);  // threshold == DFD: no early exit possible
  const double below =
      DiscreteFrechetOnRangeGeneric(dg, 0, 20, 5, 28, exact * 0.25).value();
  EXPECT_EQ(below > exact * 0.25, true);
  EXPECT_LE(below, exact);
}

// ---------------------------------------------------------------------------
// Serial vs thread-pooled search parity.
// ---------------------------------------------------------------------------

Trajectory PlantedTrajectory(Index length, std::uint64_t seed) {
  DatasetOptions data_options;
  data_options.length = length;
  data_options.seed = seed;
  const Trajectory base =
      MakeDataset(DatasetKind::kGeoLifeLike, data_options).value();
  return PlantMotif(base, /*segment_start=*/20, /*segment_length=*/18,
                    /*gap_length=*/15, /*noise_m=*/1.0, seed + 1)
      .value()
      .trajectory;
}

template <typename Options, typename Run>
void ExpectSerialParallelParity(const Options& serial_options,
                                const Run& run) {
  Options parallel_options = serial_options;
  parallel_options.motif.threads = 4;

  MotifStats serial_stats;
  MotifStats parallel_stats;
  const MotifResult serial = run(serial_options, &serial_stats);
  const MotifResult parallel = run(parallel_options, &parallel_stats);

  ASSERT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.distance, parallel.distance);  // bit-identical
  EXPECT_EQ(serial.best, parallel.best);
  // Deterministic structural totals agree; effort counters may not (the
  // parallel batches run against snapshot thresholds).
  EXPECT_EQ(serial_stats.total_subsets, parallel_stats.total_subsets);
}

TEST(ThreadedSearchParityTest, BtmPlantedMotif) {
  const Trajectory s = PlantedTrajectory(140, 11);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Haversine()).value();
  BtmOptions options;
  options.motif.min_length_xi = 8;
  ExpectSerialParallelParity(options,
                             [&](const BtmOptions& o, MotifStats* stats) {
                               return BtmMotif(dg, o, stats).value();
                             });
}

TEST(ThreadedSearchParityTest, BtmTightBounds) {
  const Trajectory s = PlantedTrajectory(120, 13);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Haversine()).value();
  BtmOptions options;
  options.motif.min_length_xi = 8;
  options.relaxed = false;
  ExpectSerialParallelParity(options,
                             [&](const BtmOptions& o, MotifStats* stats) {
                               return BtmMotif(dg, o, stats).value();
                             });
}

TEST(ThreadedSearchParityTest, GtmPlantedMotif) {
  const Trajectory s = PlantedTrajectory(140, 17);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Haversine()).value();
  GtmOptions options;
  options.motif.min_length_xi = 8;
  options.group_size_tau = 8;
  ExpectSerialParallelParity(options,
                             [&](const GtmOptions& o, MotifStats* stats) {
                               return GtmMotif(dg, o, stats).value();
                             });
}

TEST(ThreadedSearchParityTest, GtmStarPlantedMotif) {
  const Trajectory s = PlantedTrajectory(140, 19);
  GtmStarOptions options;
  options.motif.min_length_xi = 8;
  options.group_size_tau = 8;
  ExpectSerialParallelParity(
      options, [&](const GtmStarOptions& o, MotifStats* stats) {
        return GtmStarMotif(s, Haversine(), o, stats).value();
      });
}

TEST(ThreadedSearchParityTest, RandomMatrixAllAlgorithmsAgree) {
  // On adversarial random matrices every algorithm's threads=4 run must
  // reproduce its own serial run exactly, and every algorithm — BTM with
  // relaxed and with tight bounds, GTM, GTM*, top-1 — must report
  // BruteDP's candidate, not just its distance. The tied family
  // (integer-valued entries) gives many distinct candidates the optimal
  // distance; SearchState::Record's canonical order still makes the
  // answer a function of the input alone.
  const Index n = 44;
  const auto with_threads = [](auto options, int threads) {
    options.motif.threads = threads;
    return options;
  };
  for (const bool cross : {false, true}) {
    for (const bool tied : {false, true}) {
      for (std::uint64_t seed = 2024; seed < 2027; ++seed) {
        SCOPED_TRACE(::testing::Message() << "cross=" << cross
                                          << " tied=" << tied
                                          << " seed=" << seed);
        const DistanceMatrix dg =
            tied ? (cross ? MakeTiedCrossMatrix(n, n, seed)
                          : MakeTiedSelfMatrix(n, seed))
                 : (cross ? MakeRandomCrossMatrix(n, n, seed)
                          : MakeRandomSelfMatrix(n, seed));
        MotifOptions motif;
        motif.min_length_xi = 3;
        if (cross) motif.variant = MotifVariant::kCrossTrajectory;
        const MotifResult reference = BruteDpMotif(dg, motif).value();
        ASSERT_TRUE(reference.found);

        BtmOptions btm;
        btm.motif = motif;
        const MotifResult rb1 = BtmMotif(dg, btm).value();
        const MotifResult rb4 = BtmMotif(dg, with_threads(btm, 4)).value();
        EXPECT_EQ(rb1.distance, reference.distance);
        EXPECT_EQ(rb1.best, reference.best);
        EXPECT_EQ(rb4.distance, rb1.distance);
        EXPECT_EQ(rb4.best, rb1.best);

        BtmOptions tight = btm;
        tight.relaxed = false;
        const MotifResult rt = BtmMotif(dg, tight).value();
        EXPECT_EQ(rt.distance, reference.distance);
        EXPECT_EQ(rt.best, reference.best);

        GtmOptions gtm;
        gtm.motif = motif;
        gtm.group_size_tau = 8;
        const MotifResult rg1 = GtmMotif(dg, gtm).value();
        const MotifResult rg4 = GtmMotif(dg, with_threads(gtm, 4)).value();
        EXPECT_EQ(rg1.distance, reference.distance);
        EXPECT_EQ(rg1.best, reference.best);
        EXPECT_EQ(rg4.distance, rg1.distance);
        EXPECT_EQ(rg4.best, rg1.best);

        GtmStarOptions gs;
        gs.motif = motif;
        gs.group_size_tau = 8;
        const MotifResult rgs1 = GtmStarMotif(dg, gs).value();
        const MotifResult rgs4 = GtmStarMotif(dg, with_threads(gs, 4)).value();
        EXPECT_EQ(rgs1.distance, reference.distance);
        EXPECT_EQ(rgs1.best, reference.best);
        EXPECT_EQ(rgs4.distance, rgs1.distance);
        EXPECT_EQ(rgs4.best, rgs1.best);

        TopKOptions top;
        top.motif = motif;
        top.k = 1;
        const std::vector<MotifResult> top1 = TopKMotifs(dg, top).value();
        ASSERT_EQ(top1.size(), 1u);
        EXPECT_EQ(top1[0].distance, reference.distance);
        EXPECT_EQ(top1[0].best, reference.best);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-pooled similarity join parity.
// ---------------------------------------------------------------------------

TEST(ThreadedJoinParityTest, SelfJoinMatchesSerial) {
  std::vector<Trajectory> trajectories;
  for (std::uint64_t seed = 0; seed < 14; ++seed) {
    trajectories.push_back(testing_util::MakePlanarWalk(30, seed));
  }
  JoinOptions options;
  options.threshold = 60.0;

  JoinStats serial_stats;
  const std::vector<JoinPair> serial =
      DfdSelfJoin(trajectories, Euclidean(), options, &serial_stats).value();

  JoinOptions pooled = options;
  pooled.threads = 4;
  JoinStats pooled_stats;
  const std::vector<JoinPair> parallel =
      DfdSelfJoin(trajectories, Euclidean(), pooled, &pooled_stats).value();

  EXPECT_EQ(serial, parallel);  // same pairs in the same order
  EXPECT_EQ(serial_stats.pairs_total, pooled_stats.pairs_total);
  EXPECT_EQ(serial_stats.matched, pooled_stats.matched);
  EXPECT_EQ(serial_stats.decided_exact, pooled_stats.decided_exact);
}

TEST(ThreadedJoinParityTest, CrossJoinWithGridIndexMatchesSerial) {
  std::vector<Trajectory> left;
  std::vector<Trajectory> right;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    left.push_back(testing_util::MakePlanarWalk(24, seed));
    right.push_back(testing_util::MakePlanarWalk(24, seed + 100));
  }
  JoinOptions options;
  options.threshold = 80.0;
  options.use_grid_index = true;

  const std::vector<JoinPair> serial =
      DfdSimilarityJoin(left, right, Euclidean(), options).value();
  JoinOptions pooled = options;
  pooled.threads = 3;
  const std::vector<JoinPair> parallel =
      DfdSimilarityJoin(left, right, Euclidean(), pooled).value();
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace frechet_motif
