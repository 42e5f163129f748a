#include "motif/bounds.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/options.h"
#include "data/datasets.h"
#include "geo/metric.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;
using testing_util::MakeShiftedRing;
using testing_util::SameBits;

constexpr double kInf = std::numeric_limits<double>::infinity();

MotifOptions SingleOptions(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  return o;
}

MotifOptions CrossOptions(Index xi) {
  MotifOptions o;
  o.min_length_xi = xi;
  o.variant = MotifVariant::kCrossTrajectory;
  return o;
}

/// Soundness sweep: every bound must lower-bound the exact DFD of every
/// valid candidate in its subset, on random (metric-free) matrices.
/// Parameters: (n, xi, seed, single-variant).
class BoundSoundnessTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t, bool>> {
 protected:
  void RunSweep() {
    const auto [n, xi, seed, single] = GetParam();
    const DistanceMatrix dg = single
                                  ? MakeRandomSelfMatrix(n, seed)
                                  : MakeRandomCrossMatrix(n, n + 3, seed);
    const MotifOptions options = single ? SingleOptions(xi) : CrossOptions(xi);
    const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
    const Index m = dg.cols();

    ForEachValidSubset(options, dg.rows(), m, [&](Index i, Index j) {
      const double cell = LbCell(dg, i, j);
      const double cross = LbStartCross(dg, options, i, j);
      const double band_row = LbRowBand(dg, options, i, j);
      const double band_col = LbColBand(dg, options, i, j);
      const double r_cross = rb.StartCross(i, j);
      const double r_band_row = rb.BandRow(j);
      const double r_band_col = rb.BandCol(i);

      // Relaxation property (Lemma 2): relaxed <= tight.
      EXPECT_LE(r_cross, cross) << "at (" << i << "," << j << ")";
      EXPECT_LE(r_band_row, band_row) << "at (" << i << "," << j << ")";
      EXPECT_LE(r_band_col, band_col) << "at (" << i << "," << j << ")";

      // Exhaustively check all valid candidates of this subset.
      const Index ie_max = single ? j - 1 : dg.rows() - 1;
      for (Index ie = i + xi + 1; ie <= ie_max; ++ie) {
        for (Index je = j + xi + 1; je <= m - 1; ++je) {
          const double dfd =
              DiscreteFrechetOnRange(dg, i, ie, j, je).value();
          EXPECT_LE(cell, dfd);
          EXPECT_LE(cross, dfd);
          EXPECT_LE(band_row, dfd);
          EXPECT_LE(band_col, dfd);
          EXPECT_LE(r_cross, dfd);
          EXPECT_LE(r_band_row, dfd);
          EXPECT_LE(r_band_col, dfd);
        }
      }
    });
  }
};

TEST_P(BoundSoundnessTest, AllBoundsBelowExactDfd) { RunSweep(); }

INSTANTIATE_TEST_SUITE_P(
    RandomMatrices, BoundSoundnessTest,
    ::testing::Combine(::testing::Values(14, 18), ::testing::Values(1, 2, 3),
                       ::testing::Values(7u, 8u, 9u), ::testing::Bool()));

/// End-cross bound soundness: LbEndCross(i,j,ie,je) must lower-bound the
/// DFD of every candidate of CS(i,j) ending strictly beyond (ie,je), and so
/// must its relaxed form.
class EndCrossSoundnessTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(EndCrossSoundnessTest, BoundsCandidatesBeyondCell) {
  const auto [seed, single] = GetParam();
  const Index n = 16;
  const Index xi = 2;
  const DistanceMatrix dg = single ? MakeRandomSelfMatrix(n, seed)
                                   : MakeRandomCrossMatrix(n, n, seed);
  const MotifOptions options = single ? SingleOptions(xi) : CrossOptions(xi);
  const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
  ForEachValidSubset(options, n, n, [&](Index i, Index j) {
    const Index ie_max = single ? j - 1 : n - 1;
    for (Index ie = i; ie <= ie_max; ++ie) {
      for (Index je = j; je <= n - 1; ++je) {
        const double lb = LbEndCross(dg, options, i, j, ie, je);
        const double rlb = rb.EndCross(ie, je);
        EXPECT_LE(rlb, lb + 1e-12);
        for (Index ic = std::max<Index>(ie + 1, i + xi + 1); ic <= ie_max;
             ++ic) {
          for (Index jc = std::max<Index>(je + 1, j + xi + 1); jc <= n - 1;
               ++jc) {
            const double dfd =
                DiscreteFrechetOnRange(dg, i, ic, j, jc).value();
            EXPECT_LE(lb, dfd) << "(" << i << "," << j << ") end (" << ie
                               << "," << je << ") cand (" << ic << "," << jc
                               << ")";
            EXPECT_LE(rlb, dfd);
          }
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RandomMatrices, EndCrossSoundnessTest,
                         ::testing::Combine(::testing::Values(3u, 4u),
                                            ::testing::Bool()));

/// The relaxed-bound arrays as the header defines them, one column or row
/// scan per entry through Distance(): the reference the row-major sweep
/// of RelaxedBounds::Build must reproduce bit for bit.
struct ColumnScanBounds {
  std::vector<double> rmin, rmin_full, cmin, cmin_start, cmin_full;
};

ColumnScanBounds ColumnScanReference(const DistanceProvider& dist,
                                     const MotifOptions& options) {
  const Index n = dist.rows();
  const Index m = dist.cols();
  const bool single = options.variant == MotifVariant::kSingleTrajectory;
  ColumnScanBounds ref;
  ref.rmin.assign(m, kInf);
  ref.rmin_full.assign(m, kInf);
  for (Index j = 0; j + 1 < m; ++j) {
    for (Index c = 0; c < n; ++c) {
      const double d = dist.Distance(c, j + 1);
      ref.rmin_full[j] = std::min(ref.rmin_full[j], d);
      if (!single || c <= j - 1) ref.rmin[j] = std::min(ref.rmin[j], d);
    }
  }
  ref.cmin.assign(n, kInf);
  ref.cmin_start.assign(n, kInf);
  ref.cmin_full.assign(n, kInf);
  for (Index i = 0; i + 1 < n; ++i) {
    for (Index r = 0; r < m; ++r) {
      const double d = dist.Distance(i + 1, r);
      ref.cmin_full[i] = std::min(ref.cmin_full[i], d);
      if (!single || r >= i + 1) ref.cmin[i] = std::min(ref.cmin[i], d);
      if (!single || r >= i + 3) {
        ref.cmin_start[i] = std::min(ref.cmin_start[i], d);
      }
    }
  }
  return ref;
}

/// Every array of `rb` against the column-scan reference, bit for bit.
void ExpectMatchesColumnScan(const DistanceProvider& dist,
                             const MotifOptions& options,
                             const RelaxedBounds& rb,
                             const std::string& label) {
  const ColumnScanBounds ref = ColumnScanReference(dist, options);
  const std::vector<double> band_row =
      SlidingWindowMax(ref.rmin, options.min_length_xi);
  const std::vector<double> band_col =
      SlidingWindowMax(ref.cmin_start, options.min_length_xi);
  for (Index j = 0; j < dist.cols(); ++j) {
    EXPECT_TRUE(SameBits(rb.Rmin(j), ref.rmin[j])) << label << " Rmin " << j;
    EXPECT_TRUE(SameBits(rb.RminFull(j), ref.rmin_full[j]))
        << label << " RminFull " << j;
    EXPECT_TRUE(SameBits(rb.BandRow(j), band_row[j]))
        << label << " BandRow " << j;
  }
  for (Index i = 0; i < dist.rows(); ++i) {
    EXPECT_TRUE(SameBits(rb.Cmin(i), ref.cmin[i])) << label << " Cmin " << i;
    EXPECT_TRUE(SameBits(rb.CminStart(i), ref.cmin_start[i]))
        << label << " CminStart " << i;
    EXPECT_TRUE(SameBits(rb.CminFull(i), ref.cmin_full[i]))
        << label << " CminFull " << i;
    EXPECT_TRUE(SameBits(rb.BandCol(i), band_col[i]))
        << label << " BandCol " << i;
  }
}

/// The row sweep equals the column scans at threads 1, 2 and 4, in both
/// variants, on the three providers (matrix storage, a ring whose rows
/// cross its column seam, and the on-the-fly rows), including matrices
/// too short for any candidate (m <= ξ+3) and for any Rmin/Cmin entry.
TEST(RelaxedBoundsBuildTest, RowSweepMatchesColumnScanReference) {
  const Index xi = 4;
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4};
  for (const Index n : {1, 2, xi + 2, xi + 3, 23, 41}) {
    const Trajectory walk = MakePlanarWalk(n, 31 + n);
    const Trajectory feed = MakePlanarWalk(n + 17, 61 + n);
    DatasetOptions geo;
    geo.length = n;
    geo.seed = 5;
    const Trajectory rows = MakeDataset(DatasetKind::kGeoLifeLike, geo).value();
    geo.length = n + 9;
    geo.seed = 6;
    const Trajectory cols = MakeDataset(DatasetKind::kGeoLifeLike, geo).value();

    const DistanceMatrix self = MakeRandomSelfMatrix(n, 70 + n);
    const DistanceMatrix cross = MakeRandomCrossMatrix(n, n + 5, 80 + n);
    const RingDistanceMatrix ring = MakeShiftedRing(feed, n, Euclidean());
    const OnTheFlyDistance fly_self(walk, Euclidean());
    const OnTheFlyDistance fly_cross(rows, cols, Haversine());
    const struct {
      const DistanceProvider* dist;
      const char* name;
    } providers[] = {{&self, "matrix-self"},
                     {&cross, "matrix-cross"},
                     {&ring, "ring"},
                     {&fly_self, "fly-euclidean"},
                     {&fly_cross, "fly-haversine-cross"}};
    for (const auto& p : providers) {
      for (const bool single : {true, false}) {
        // The single variant is defined on self-matrices only.
        if (single && p.dist->rows() != p.dist->cols()) continue;
        const MotifOptions options =
            single ? SingleOptions(xi) : CrossOptions(xi);
        for (ThreadPool* pool : pools) {
          const RelaxedBounds rb = RelaxedBounds::Build(*p.dist, options, pool);
          ExpectMatchesColumnScan(
              *p.dist, options, rb,
              std::string(p.name) + " n=" + std::to_string(n) +
                  (single ? " single" : " cross") + " threads=" +
                  std::to_string(pool != nullptr ? pool->threads() : 1));
        }
      }
    }
  }
}

TEST(BoundsTest, CellBoundIsStartDistance) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  EXPECT_DOUBLE_EQ(LbCell(dg, 2, 7), dg.Distance(2, 7));
}

TEST(BoundsTest, OutOfRangeRowGivesInfinity) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  const MotifOptions options = SingleOptions(2);
  // j+1 beyond the last column -> no candidate can exist.
  EXPECT_EQ(LbRow(dg, options, 0, 11), kInf);
}

TEST(BoundsTest, BandRequiresRoomForXiRows) {
  const DistanceMatrix dg = MakeRandomSelfMatrix(12, 1);
  const MotifOptions options = SingleOptions(4);
  // j + xi exceeds the matrix: the band bound must disqualify the subset.
  EXPECT_EQ(LbRowBand(dg, options, 0, 9), kInf);
}

TEST(SlidingWindowMaxTest, ComputesWindowMaxima) {
  const std::vector<double> v = {3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<double> out = SlidingWindowMax(v, 3);
  ASSERT_EQ(out.size(), v.size());
  EXPECT_DOUBLE_EQ(out[0], 4);
  EXPECT_DOUBLE_EQ(out[1], 4);
  EXPECT_DOUBLE_EQ(out[2], 5);
  EXPECT_DOUBLE_EQ(out[3], 9);
  EXPECT_DOUBLE_EQ(out[4], 9);
  EXPECT_DOUBLE_EQ(out[5], 9);
  EXPECT_EQ(out[6], kInf);  // window no longer fits
  EXPECT_EQ(out[7], kInf);
}

TEST(SlidingWindowMaxTest, WindowOneIsIdentity) {
  const std::vector<double> v = {2, 7, 1};
  const std::vector<double> out = SlidingWindowMax(v, 1);
  EXPECT_DOUBLE_EQ(out[0], 2);
  EXPECT_DOUBLE_EQ(out[1], 7);
  EXPECT_DOUBLE_EQ(out[2], 1);
}

TEST(SlidingWindowMaxTest, OversizedWindowIsAllInfinity) {
  const std::vector<double> v = {2, 7};
  for (double x : SlidingWindowMax(v, 5)) EXPECT_EQ(x, kInf);
}

TEST(SlidingWindowMaxTest, MatchesNaiveOnRandomInput) {
  Rng rng(99);
  std::vector<double> v(64);
  for (double& x : v) x = rng.NextDouble(0.0, 10.0);
  for (Index w : {2, 5, 13}) {
    const std::vector<double> fast = SlidingWindowMax(v, w);
    for (Index k = 0; k + w <= static_cast<Index>(v.size()); ++k) {
      double expect = -kInf;
      for (Index t = k; t < k + w; ++t) expect = std::max(expect, v[t]);
      EXPECT_DOUBLE_EQ(fast[k], expect) << "w=" << w << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace frechet_motif
