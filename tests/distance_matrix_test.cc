#include "core/distance_matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "geo/metric.h"
#include "test_util.h"

namespace frechet_motif {
namespace {

using testing_util::MakePlanarWalk;
using testing_util::RowSpanMismatches;

TEST(DistanceMatrixTest, RejectsEmptyTrajectory) {
  Trajectory empty;
  EXPECT_FALSE(DistanceMatrix::Build(empty, Euclidean()).ok());
}

TEST(DistanceMatrixTest, SelfMatrixMatchesMetric) {
  const Trajectory s = MakePlanarWalk(20, 1);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  EXPECT_EQ(dg.rows(), 20);
  EXPECT_EQ(dg.cols(), 20);
  for (Index i = 0; i < 20; ++i) {
    for (Index j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(dg.Distance(i, j), Euclidean().Distance(s[i], s[j]));
    }
  }
}

TEST(DistanceMatrixTest, SelfMatrixIsSymmetricWithZeroDiagonal) {
  const Trajectory s = MakePlanarWalk(15, 2);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  for (Index i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(dg.Distance(i, i), 0.0);
    for (Index j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(dg.Distance(i, j), dg.Distance(j, i));
    }
  }
}

TEST(DistanceMatrixTest, CrossMatrixUsesBothInputs) {
  const Trajectory s = MakePlanarWalk(6, 3);
  const Trajectory t = MakePlanarWalk(9, 4);
  const DistanceMatrix dg = DistanceMatrix::Build(s, t, Euclidean()).value();
  EXPECT_EQ(dg.rows(), 6);
  EXPECT_EQ(dg.cols(), 9);
  EXPECT_DOUBLE_EQ(dg.Distance(2, 7), Euclidean().Distance(s[2], t[7]));
}

TEST(DistanceMatrixTest, FromValuesValidatesShape) {
  EXPECT_FALSE(DistanceMatrix::FromValues(2, 2, {1.0, 2.0, 3.0}).ok());
  EXPECT_FALSE(DistanceMatrix::FromValues(0, 2, {}).ok());
  StatusOr<DistanceMatrix> ok =
      DistanceMatrix::FromValues(2, 2, {0.0, 1.0, 1.0, 0.0});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value().Distance(0, 1), 1.0);
}

TEST(DistanceMatrixTest, ReportsMemoryFootprint) {
  const Trajectory s = MakePlanarWalk(32, 5);
  const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
  EXPECT_GE(dg.MemoryBytes(), 32u * 32u * sizeof(double));
}

TEST(OnTheFlyDistanceTest, MatchesMaterializedMatrix) {
  const Trajectory s = MakePlanarWalk(18, 6);
  const Trajectory t = MakePlanarWalk(21, 7);
  const DistanceMatrix dg = DistanceMatrix::Build(s, t, Euclidean()).value();
  const OnTheFlyDistance fly(s, t, Euclidean());
  EXPECT_EQ(fly.rows(), dg.rows());
  EXPECT_EQ(fly.cols(), dg.cols());
  for (Index i = 0; i < dg.rows(); ++i) {
    for (Index j = 0; j < dg.cols(); ++j) {
      EXPECT_DOUBLE_EQ(fly.Distance(i, j), dg.Distance(i, j));
    }
  }
  EXPECT_EQ(fly.MemoryBytes(), 0u);
  // The row views of both providers match their per-cell reads.
  EXPECT_EQ(RowSpanMismatches(fly), 0);
  EXPECT_EQ(RowSpanMismatches(dg), 0);
}

TEST(OnTheFlyDistanceTest, SingleTrajectoryFormIsSelfDistance) {
  const Trajectory s = MakePlanarWalk(10, 8);
  const OnTheFlyDistance fly(s, Euclidean());
  EXPECT_EQ(fly.rows(), 10);
  EXPECT_EQ(fly.cols(), 10);
  EXPECT_DOUBLE_EQ(fly.Distance(3, 3), 0.0);
}

// ---------------------------------------------------------------------------
// RingDistanceMatrix eviction boundaries
// ---------------------------------------------------------------------------

// Oracle: encode the *global* (row id, col id) pair into each cell so a
// read-back proves both which entries survived an eviction and that the
// logical->physical index mapping stayed aligned after the heads moved.
double CellOf(Index row_id, Index col_id) {
  return 1000.0 * static_cast<double>(row_id) + static_cast<double>(col_id);
}

// The fresh-cell buffer an append copies in: values[k] = cell(k) for
// k in [0, count).
template <typename CellFn>
std::vector<double> Cells(Index count, CellFn cell) {
  std::vector<double> values(static_cast<std::size_t>(count));
  for (Index k = 0; k < count; ++k) values[k] = cell(k);
  return values;
}

// Enough zeros for any append in these tests.
const std::vector<double> kZeros(16, 0.0);

TEST(RingDistanceMatrixTest, AppendRowEvictsOldestExactlyAtCapacity) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/2);
  ring.AppendCol(kZeros.data());  // no rows yet
  ring.AppendCol(kZeros.data());

  for (Index r = 0; r < 3; ++r) {
    ring.AppendRow(Cells(2, [r](Index j) { return CellOf(r, j); }).data());
    EXPECT_EQ(ring.rows(), r + 1) << "no eviction below capacity";
  }
  // The window is exactly full: one more row must evict logical row 0
  // and only logical row 0.
  ring.AppendRow(Cells(2, [](Index j) { return CellOf(3, j); }).data());
  EXPECT_EQ(ring.rows(), 3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 2; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(i + 1, j))
          << "window should hold global rows 1..3 at (" << i << "," << j
          << ")";
    }
  }
}

TEST(RingDistanceMatrixTest, HeadsWrapAcrossManyEvictions) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/4);
  for (Index j = 0; j < 4; ++j) ring.AppendCol(kZeros.data());
  // Enough appends to lap the physical buffer several times.
  for (Index r = 0; r < 11; ++r) {
    ring.AppendRow(Cells(4, [r](Index j) { return CellOf(r, j); }).data());
  }
  EXPECT_EQ(ring.rows(), 3);
  EXPECT_EQ(ring.row_capacity(), 3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(8 + i, j));
    }
  }
}

TEST(RingDistanceMatrixTest, AppendColEvictsOldestColumn) {
  RingDistanceMatrix ring(/*row_capacity=*/2, /*col_capacity=*/3);
  ring.AppendRow(kZeros.data());
  ring.AppendRow(kZeros.data());
  for (Index c = 0; c < 5; ++c) {
    ring.AppendCol(Cells(2, [c](Index i) { return CellOf(i, c); }).data());
    EXPECT_LE(ring.cols(), 3) << "cols() must never exceed capacity";
  }
  EXPECT_EQ(ring.cols(), 3);
  for (Index i = 0; i < 2; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(i, j + 2));
    }
  }
}

TEST(RingDistanceMatrixTest, CapacityOneAlwaysHoldsTheNewestEntry) {
  RingDistanceMatrix ring(/*row_capacity=*/1, /*col_capacity=*/1);
  ring.AppendPoint(kZeros.data(), kZeros.data(), /*self_distance=*/7.0);
  EXPECT_EQ(ring.rows(), 1);
  EXPECT_EQ(ring.cols(), 1);
  EXPECT_EQ(ring.Distance(0, 0), 7.0);
  ring.AppendPoint(kZeros.data(), kZeros.data(), /*self_distance=*/9.0);
  EXPECT_EQ(ring.rows(), 1);
  EXPECT_EQ(ring.Distance(0, 0), 9.0);
}

TEST(RingDistanceMatrixTest, AppendPointEvictsBothDimensionsTogether) {
  RingDistanceMatrix ring(/*row_capacity=*/3, /*col_capacity=*/3);
  // Self-matrix over global point ids 0..4: cell (a, b) = CellOf(a, b),
  // with an asymmetric fill (row fill vs column fill differ by the
  // argument order) so a swapped buffer would be caught.
  for (Index p = 0; p < 5; ++p) {
    const Index base = p >= 3 ? p - 2 : 0;  // oldest surviving global id
    const Index fresh = p - base;           // cells per fresh row/column
    ring.AppendPoint(
        Cells(fresh, [p, base](Index k) { return CellOf(p, base + k); })
            .data(),
        Cells(fresh, [p, base](Index k) { return CellOf(base + k, p); })
            .data(),
        /*self_distance=*/CellOf(p, p));
    EXPECT_EQ(ring.rows(), ring.cols()) << "self-matrix must stay square";
    EXPECT_LE(ring.rows(), 3);
  }
  // Window now holds global points 2..4 in both dimensions.
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(2 + i, 2 + j));
    }
  }
}

TEST(RingDistanceMatrixTest, MidBufferHeadsSplitRowAndColumnWrites) {
  // Drive both heads mid-buffer with the ring full, so the next row
  // write wraps across the column seam and the next column write across
  // the row seam — each buffer copy lands in two non-empty segments.
  RingDistanceMatrix ring(/*row_capacity=*/4, /*col_capacity=*/5);
  Index first_row = 0;  // global id of logical row 0
  Index first_col = 0;  // global id of logical column 0
  Index next_row = 0;
  Index next_col = 0;
  const auto append_row = [&] {
    if (ring.rows() == ring.row_capacity()) ++first_row;
    const Index r = next_row++;
    const Index base = first_col;
    ring.AppendRow(
        Cells(ring.cols(), [r, base](Index j) { return CellOf(r, base + j); })
            .data());
  };
  const auto append_col = [&] {
    if (ring.cols() == ring.col_capacity()) ++first_col;
    const Index c = next_col++;
    const Index base = first_row;
    ring.AppendCol(
        Cells(ring.rows(), [c, base](Index i) { return CellOf(base + i, c); })
            .data());
  };
  for (int k = 0; k < 5; ++k) append_col();
  for (int k = 0; k < 6; ++k) append_row();  // row head -> 2
  for (int k = 0; k < 2; ++k) append_col();  // col head -> 2
  ASSERT_EQ(ring.row_head(), 2);
  ASSERT_EQ(ring.col_head(), 2);
  // Row write: logical columns [0, 5) from physical slot 2 -> [2, 5) + [0, 2).
  append_row();
  ASSERT_EQ(ring.row_head(), 3);
  // Column write: logical rows [0, 4) from physical slot 3 -> [3, 4) + [0, 3).
  append_col();
  ASSERT_EQ(ring.col_head(), 3);

  ASSERT_EQ(ring.rows(), 4);
  ASSERT_EQ(ring.cols(), 5);
  for (Index i = 0; i < ring.rows(); ++i) {
    for (Index j = 0; j < ring.cols(); ++j) {
      EXPECT_EQ(ring.Distance(i, j), CellOf(first_row + i, first_col + j))
          << "cell (" << i << "," << j << ")";
    }
  }
  // With the column head at slot 3, logical columns 1 and 2 sit on either
  // side of the column seam: spans from column 0 or 1 that reach column 2
  // come back copied, the rest straight from the ring's storage.
  EXPECT_EQ(RowSpanMismatches(ring), 0);
}

TEST(RingDistanceMatrixTest, FootprintIsCapacityBoundNotSizeBound) {
  RingDistanceMatrix ring(/*row_capacity=*/4, /*col_capacity=*/5);
  const std::size_t fresh = ring.MemoryBytes();
  EXPECT_EQ(fresh, 4u * 5u * sizeof(double));
  for (Index j = 0; j < 5; ++j) ring.AppendCol(kZeros.data());
  for (Index r = 0; r < 9; ++r) ring.AppendRow(kZeros.data());
  EXPECT_EQ(ring.MemoryBytes(), fresh) << "the ring never reallocates";
}

}  // namespace
}  // namespace frechet_motif
