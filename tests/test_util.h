#ifndef FRECHET_MOTIF_TESTS_TEST_UTIL_H_
#define FRECHET_MOTIF_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "core/distance_matrix.h"
#include "core/options.h"
#include "core/trajectory.h"
#include "geo/metric.h"
#include "util/random.h"

namespace frechet_motif {
namespace testing_util {

/// Seed for a randomized (fuzz-style) test: `default_seed` unless the
/// FMOTIF_FUZZ_SEED environment variable overrides it. The seed in use
/// is printed unconditionally, so any failure report carries what is
/// needed to reproduce it:
///
///     FMOTIF_FUZZ_SEED=<printed seed> ctest -R <test> --output-on-failure
inline std::uint64_t FuzzSeed(std::uint64_t default_seed) {
  std::uint64_t seed = default_seed;
  if (const char* env = std::getenv("FMOTIF_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::fprintf(stderr,
               "[fuzz] seed = %llu (rerun with FMOTIF_FUZZ_SEED=%llu)\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed));
  return seed;
}

/// Iteration count for a randomized test: `default_rounds` unless
/// FMOTIF_FUZZ_ROUNDS overrides it (CI's extended-fuzz job raises it).
inline int FuzzRounds(int default_rounds) {
  if (const char* env = std::getenv("FMOTIF_FUZZ_ROUNDS");
      env != nullptr && *env != '\0') {
    const long rounds = std::strtol(env, nullptr, 10);
    if (rounds > 0) return static_cast<int>(rounds);
  }
  return default_rounds;
}

/// True iff `a` and `b` are the same double bit for bit.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Random non-negative symmetric "ground distance" matrix with zero
/// diagonal (n x n). The motif algorithms only read dG through the
/// DistanceProvider interface, so algorithm-agreement tests can use
/// arbitrary matrices — adversarial inputs that real metrics rarely
/// produce.
inline DistanceMatrix MakeRandomSelfMatrix(Index n, std::uint64_t seed,
                                           double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      const double d = rng.NextDouble(0.0, scale);
      values[static_cast<std::size_t>(i) * n + j] = d;
      values[static_cast<std::size_t>(j) * n + i] = d;
    }
  }
  return DistanceMatrix::FromValues(n, n, std::move(values)).value();
}

/// Random rectangular non-negative matrix (n x m), for the cross-trajectory
/// variant.
inline DistanceMatrix MakeRandomCrossMatrix(Index n, Index m,
                                            std::uint64_t seed,
                                            double scale = 100.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * m);
  for (double& v : values) v = rng.NextDouble(0.0, scale);
  return DistanceMatrix::FromValues(n, m, std::move(values)).value();
}

/// Tied random matrices: like MakeRandomSelfMatrix / MakeRandomCrossMatrix,
/// but every off-diagonal entry is an integer in [0, levels). Many distinct
/// candidates then share the optimal DFD, which is the adversarial input
/// for the canonical tie order (CandidateOrderedBefore).
inline DistanceMatrix MakeTiedSelfMatrix(Index n, std::uint64_t seed,
                                         int levels = 6) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      const auto d = static_cast<double>(rng.NextInt(0, levels - 1));
      values[static_cast<std::size_t>(i) * n + j] = d;
      values[static_cast<std::size_t>(j) * n + i] = d;
    }
  }
  return DistanceMatrix::FromValues(n, n, std::move(values)).value();
}

inline DistanceMatrix MakeTiedCrossMatrix(Index n, Index m,
                                          std::uint64_t seed,
                                          int levels = 6) {
  Rng rng(seed);
  std::vector<double> values(static_cast<std::size_t>(n) * m);
  for (double& v : values) v = static_cast<double>(rng.NextInt(0, levels - 1));
  return DistanceMatrix::FromValues(n, m, std::move(values)).value();
}

/// Small planar random-walk trajectory (coordinates in meters, for use
/// with the Euclidean metric).
inline Trajectory MakePlanarWalk(Index n, std::uint64_t seed,
                                 double step = 10.0) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  double x = 0.0;
  double y = 0.0;
  for (Index i = 0; i < n; ++i) {
    points.emplace_back(x, y);
    x += rng.NextGaussian(0.0, step);
    y += rng.NextGaussian(0.0, step);
  }
  return Trajectory(std::move(points));
}

/// The window of `feed`'s last `n` points as a ring whose heads sit
/// mid-buffer: all of `feed` is appended to an n x n self-matrix ring
/// under `metric`, evicting the first feed.size() - n points, so DP rows
/// cross the ring's column seam.
inline RingDistanceMatrix MakeShiftedRing(const Trajectory& feed, Index n,
                                          const GroundMetric& metric) {
  RingDistanceMatrix ring(n, n);
  for (Index p = 0; p < feed.size(); ++p) {
    const Index first = p - n + 1 > 0 ? p - n + 1 : 0;  // after eviction
    std::vector<double> to_window;
    for (Index k = first; k < p; ++k) {
      to_window.push_back(metric.Distance(feed[p], feed[k]));
    }
    ring.AppendPoint(to_window.data(), to_window.data(), 0.0);
  }
  return ring;
}

/// The unpruned subset DP: dF(i, ie, j, je) over CS(i, j)'s whole
/// rectangle — rows ie in [i, ie_max], columns je in [j, m-1], with
/// ie_max = j-1 (single variant) or n-1 (cross) — with no threshold.
struct SubsetReference {
  /// table[ie - i][je - j] is dF(i, ie, j, je).
  std::vector<std::vector<double>> table;
  /// The subset's optimum, ties resolved by CandidateOrderedBefore.
  MotifResult best;
};

inline SubsetReference FullSubsetDp(const DistanceProvider& dist,
                                    const MotifOptions& options, Index i,
                                    Index j) {
  const Index xi = options.min_length_xi;
  const Index ie_max = options.variant == MotifVariant::kSingleTrajectory
                           ? j - 1
                           : dist.rows() - 1;
  const Index width = dist.cols() - j;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SubsetReference ref;
  for (Index r = i; r <= ie_max; ++r) {
    std::vector<double> row(static_cast<std::size_t>(width));
    for (Index q = 0; q < width; ++q) {
      double pred = r == i && q == 0 ? -kInf : kInf;
      if (q > 0) pred = std::min(pred, row[q - 1]);
      if (r > i) {
        const std::vector<double>& up = ref.table.back();
        pred = std::min(pred, up[q]);
        if (q > 0) pred = std::min(pred, up[q - 1]);
      }
      row[q] = std::max(dist.Distance(r, j + q), pred);
      const Candidate c{i, r, j, j + q};
      const bool better = row[q] < ref.best.distance ||
                          (row[q] == ref.best.distance &&
                           CandidateOrderedBefore(c, ref.best.best));
      if (r > i + xi && q > xi && better) {
        ref.best = MotifResult{c, row[q], true};
      }
    }
    ref.table.push_back(std::move(row));
  }
  return ref;
}

/// Number of (r, c0, count, q) with RowSpan(r, c0, count)[q] !=
/// Distance(r, c0 + q), over every row and every in-range column span of
/// `dist`. The fill buffer starts as NaN, so a span a provider returns
/// without filling it counts too. Zero means the row view agrees with
/// the per-cell reads bit for bit.
inline std::int64_t RowSpanMismatches(const DistanceProvider& dist) {
  std::int64_t mismatches = 0;
  std::vector<double> buf;
  for (Index r = 0; r < dist.rows(); ++r) {
    for (Index c0 = 0; c0 < dist.cols(); ++c0) {
      for (Index count = 1; c0 + count <= dist.cols(); ++count) {
        buf.assign(static_cast<std::size_t>(count),
                   std::numeric_limits<double>::quiet_NaN());
        const double* span = dist.RowSpan(r, c0, count, buf.data());
        for (Index q = 0; q < count; ++q) {
          if (span[q] != dist.Distance(r, c0 + q)) ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

}  // namespace testing_util
}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_TESTS_TEST_UTIL_H_
