/// Kernel-parity fuzz tier, three families. The range family: the AVX2 DFD
/// kernel (src/similarity/frechet.cc) must return **bit-identical** doubles to
/// the scalar kernel on every input — exact distances below the threshold,
/// and the *same* lower bound when the threshold early-exit fires. The
/// reassociation argument (min/max-only, NaN-free inputs) is in
/// docs/PERFORMANCE.md; this tier is the empirical enforcement across
/// random matrices, adversarial shapes, thresholds, and both SIMD levels
/// when the running build + CPU can execute AVX2. The decision family:
/// DfdDecision's guard-banded squared-chord test and 64-bit reach rows
/// (DiscreteFrechetAtMost) must return the verdict of the per-cell reach
/// DP over `metric.Distance(a[p], b[q]) <= θ`, on pairs whose critical
/// cell lies within a few ulps of θ. The frozen-DP family: the motif
/// search's thresholded subset DP must return the unpruned oracle's motif
/// at thresholds on and one ulp either side of it. Seeded via
/// FMOTIF_FUZZ_SEED, rounds via FMOTIF_FUZZ_ROUNDS (see test_util.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_matrix.h"
#include "geo/great_circle.h"
#include "geo/metric.h"
#include "motif/brute_dp.h"
#include "motif/relaxed_bounds.h"
#include "motif/subset_search.h"
#include "similarity/frechet.h"
#include "test_util.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace frechet_motif {
namespace {

using testing_util::FuzzRounds;
using testing_util::FuzzSeed;
using testing_util::FullSubsetDp;
using testing_util::MakePlanarWalk;
using testing_util::MakeRandomCrossMatrix;
using testing_util::MakeRandomSelfMatrix;
using testing_util::MakeShiftedRing;

/// Every level the running build and CPU can execute, scalar first. With
/// FRECHET_MOTIF_SIMD=OFF (or on a CPU without AVX2) this is just
/// {scalar} — the parity assertions then degenerate to determinism
/// checks, which is exactly what the scalar-only CI leg wants.
std::vector<SimdLevel> AvailableLevels() {
  ClearSimdLevelCap();
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return {SimdLevel::kScalar, SimdLevel::kAvx2};
  }
  return {SimdLevel::kScalar};
}

/// Pins a SIMD level for one computation; the destructor clears the cap
/// even when an ASSERT unwinds mid-test.
class ScopedSimdCap {
 public:
  explicit ScopedSimdCap(SimdLevel level) { SetSimdLevelCap(level); }
  ~ScopedSimdCap() { ClearSimdLevelCap(); }
  ScopedSimdCap(const ScopedSimdCap&) = delete;
  ScopedSimdCap& operator=(const ScopedSimdCap&) = delete;
};

double RangeDfdAtLevel(const DistanceMatrix& m, Index i, Index ie, Index j,
                       Index je, double threshold, SimdLevel level) {
  ScopedSimdCap cap(level);
  FrechetScratch scratch;
  return DiscreteFrechetOnRange(m, i, ie, j, je, threshold, &scratch).value();
}

/// Asserts the full parity + threshold-contract bundle for one range:
///  * every SIMD level returns the scalar kernel's bits, per threshold;
///  * the generic (virtual-dispatch) kernel agrees too — it shares the
///    early-exit schedule, so even above-threshold lower bounds match;
///  * a value <= threshold is the exact DFD, a value above it is a lower
///    bound that itself exceeds the threshold (the documented contract).
void CheckRange(const DistanceMatrix& m, Index i, Index ie, Index j, Index je,
                const std::vector<SimdLevel>& levels) {
  const double exact =
      RangeDfdAtLevel(m, i, ie, j, je, kNoFrechetThreshold, SimdLevel::kScalar);
  const double thresholds[] = {kNoFrechetThreshold,
                               0.0,
                               0.5 * exact,
                               exact,
                               std::nextafter(exact, 0.0),
                               1.0000001 * exact + 1e-9};
  for (const double threshold : thresholds) {
    FrechetScratch scratch;
    const double scalar =
        RangeDfdAtLevel(m, i, ie, j, je, threshold, SimdLevel::kScalar);
    const double generic =
        DiscreteFrechetOnRangeGeneric(m, i, ie, j, je, threshold, &scratch)
            .value();
    ASSERT_EQ(scalar, generic)
        << "generic/matrix divergence at range (" << i << ".." << ie << ", "
        << j << ".." << je << ") threshold " << threshold;
    for (const SimdLevel level : levels) {
      const double got = RangeDfdAtLevel(m, i, ie, j, je, threshold, level);
      ASSERT_EQ(scalar, got)
          << "SIMD level " << SimdLevelName(level) << " diverges at range ("
          << i << ".." << ie << ", " << j << ".." << je << ") threshold "
          << threshold;
    }
    // Threshold contract, against the scalar exact value.
    if (scalar <= threshold) {
      ASSERT_EQ(exact, scalar);
    } else {
      ASSERT_LE(scalar, exact);
      ASSERT_GT(scalar, threshold);
    }
  }
}

TEST(KernelParityFuzz, RandomRangesBitIdenticalAcrossLevels) {
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(20260808);
  const int rounds = FuzzRounds(8);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index n = static_cast<Index>(rng.NextInt(2, 300));
    const DistanceMatrix m = MakeRandomSelfMatrix(n, rng.NextUint64());
    // Full range plus random subranges (degenerate ones included: the
    // NextInt bounds allow single-row and single-column ranges).
    CheckRange(m, 0, n - 1, 0, n - 1, levels);
    for (int r = 0; r < 6; ++r) {
      const Index i = static_cast<Index>(rng.NextInt(0, n - 1));
      const Index ie = static_cast<Index>(rng.NextInt(i, n - 1));
      const Index j = static_cast<Index>(rng.NextInt(0, n - 1));
      const Index je = static_cast<Index>(rng.NextInt(j, n - 1));
      CheckRange(m, i, ie, j, je, levels);
    }
  }
}

TEST(KernelParityFuzz, RectangularMatricesAgree) {
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(977);
  const int rounds = FuzzRounds(6);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index n = static_cast<Index>(rng.NextInt(2, 160));
    const Index mm = static_cast<Index>(rng.NextInt(2, 160));
    const DistanceMatrix m = MakeRandomCrossMatrix(n, mm, rng.NextUint64());
    CheckRange(m, 0, n - 1, 0, mm - 1, levels);
  }
}

TEST(KernelParityFuzz, BoundaryLengthsExhaustive) {
  // Every length around the vector width (4 lanes) and the
  // checkpoint-stride doublings: the tail handling and the dense-to-
  // sparse schedule transition live exactly here.
  const std::vector<SimdLevel> levels = AvailableLevels();
  const std::uint64_t seed = FuzzSeed(4242);
  std::vector<Index> lengths;
  for (Index n = 2; n <= 34; ++n) lengths.push_back(n);
  for (const Index n : {63, 64, 65, 127, 128, 129, 255, 256, 257, 300}) {
    lengths.push_back(static_cast<Index>(n));
  }
  Rng rng(seed);
  for (const Index n : lengths) {
    const DistanceMatrix m = MakeRandomSelfMatrix(n, rng.NextUint64());
    CheckRange(m, 0, n - 1, 0, n - 1, levels);
  }
}

TEST(KernelParityFuzz, DegenerateAndAdversarialShapes) {
  const std::vector<SimdLevel> levels = AvailableLevels();

  // Single cell.
  CheckRange(DistanceMatrix::FromValues(1, 1, {3.5}).value(), 0, 0, 0, 0,
             levels);

  // Single row / single column ranges of a larger matrix.
  const DistanceMatrix m = MakeRandomSelfMatrix(40, FuzzSeed(7));
  CheckRange(m, 5, 5, 0, 39, levels);
  CheckRange(m, 0, 39, 7, 7, levels);
  CheckRange(m, 11, 11, 23, 23, levels);

  // All-equal cells: every min/max tie at once.
  std::vector<double> flat(static_cast<std::size_t>(20) * 20, 2.25);
  CheckRange(DistanceMatrix::FromValues(20, 20, std::move(flat)).value(), 0,
             19, 0, 19, levels);

  // Extreme magnitudes (still finite and NaN-free, per the kernel
  // contract): denormal-adjacent tiny values and near-overflow huge ones.
  CheckRange(MakeRandomSelfMatrix(30, 11, /*scale=*/1e-300), 0, 29, 0, 29,
             levels);
  CheckRange(MakeRandomSelfMatrix(30, 13, /*scale=*/1e300), 0, 29, 0, 29,
             levels);

  // Zero matrix: the exact DFD is 0, so every threshold is immediately
  // reached and the first-row/corner paths dominate.
  std::vector<double> zeros(static_cast<std::size_t>(12) * 12, 0.0);
  CheckRange(DistanceMatrix::FromValues(12, 12, std::move(zeros)).value(), 0,
             11, 0, 11, levels);
}

TEST(KernelParityFuzz, MotifArgminInvariantAcrossLevelsAndThreads) {
  // End-to-end argmin check through the range kernel's one production
  // caller, NaiveMotif (the O(n^6) oracle), which evaluates every
  // candidate with DiscreteFrechetOnRange. Its winning candidate — not
  // just its distance — must be independent of the dispatched kernel and
  // of how many pool lanes run it at once (each lane dispatches on the
  // cap set before the pool starts). Distances are bit-identical across
  // levels, so any candidate difference would be a dispatch bug.
  const std::vector<SimdLevel> levels = AvailableLevels();
  const Trajectory walk = MakePlanarWalk(48, FuzzSeed(31337));
  const DistanceMatrix dg = DistanceMatrix::Build(walk, Euclidean()).value();
  MotifOptions options;
  options.min_length_xi = 6;

  MotifResult reference;
  {
    ScopedSimdCap cap(SimdLevel::kScalar);
    reference = NaiveMotif(dg, options).value();
  }
  ASSERT_TRUE(reference.found);
  for (const SimdLevel level : levels) {
    for (const int threads : {1, 4}) {
      ScopedSimdCap cap(level);
      ThreadPool pool(threads);
      std::vector<MotifResult> got(static_cast<std::size_t>(threads));
      pool.RunOnAllLanes([&](int lane) {
        got[static_cast<std::size_t>(lane)] = NaiveMotif(dg, options).value();
      });
      for (const MotifResult& lane_result : got) {
        ASSERT_TRUE(lane_result.found);
        EXPECT_EQ(reference.best, lane_result.best)
            << "level " << SimdLevelName(level) << " threads " << threads;
        EXPECT_EQ(reference.distance, lane_result.distance)
            << "level " << SimdLevelName(level) << " threads " << threads;
      }
    }
  }
}

TEST(KernelParityFuzz, FrozenSubsetDpMatchesTheUnprunedOracle) {
  // The subset DP freezes every cell above the running threshold. Through
  // the subset queue — serial, and with four lanes whose snapshot
  // thresholds lag the serial one — on the matrix, a ring whose DP rows
  // cross its column seam and the on-the-fly provider, a search seeded at
  // +inf, at the motif distance d* or one ulp above it must return the
  // canonical motif of the unpruned full-rectangle DP over every subset;
  // seeded one ulp below d*, no candidate qualifies.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Index n = 48;
  const Index extra = 5;
  MotifOptions options;
  options.min_length_xi = 6;
  const int rounds = FuzzRounds(3);
  for (int round = 0; round < rounds; ++round) {
    const Trajectory feed = MakePlanarWalk(n + extra, FuzzSeed(4242) + round);
    const Trajectory s(std::vector<Point>(feed.points().begin() + extra,
                                          feed.points().end()));
    const DistanceMatrix dg = DistanceMatrix::Build(s, Euclidean()).value();
    const RingDistanceMatrix ring = MakeShiftedRing(feed, n, Euclidean());
    const OnTheFlyDistance fly(s, Euclidean());
    const DistanceProvider* providers[] = {&dg, &ring, &fly};

    MotifResult oracle;
    ForEachValidSubset(options, n, n, [&](Index i, Index j) {
      const MotifResult best = FullSubsetDp(dg, options, i, j).best;
      if (best.distance < oracle.distance ||
          (best.distance == oracle.distance &&
           CandidateOrderedBefore(best.best, oracle.best))) {
        oracle = best;
      }
    });
    ASSERT_TRUE(oracle.found);
    ASSERT_EQ(oracle.distance, NaiveMotif(dg, options).value().distance);
    const double d = oracle.distance;

    const RelaxedBounds rb = RelaxedBounds::Build(dg, options);
    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      for (const DistanceProvider* dist : providers) {
        for (const double t : {kInf, d, std::nextafter(d, kInf),
                               std::nextafter(d, -kInf)}) {
          std::vector<SubsetEntry> entries = BuildSubsetQueue(
              options, n, n, nullptr,
              [&](Index i, Index j) { return rb.SubsetLb(dg, i, j); });
          SearchState state;
          state.threshold = t;
          RunSubsetQueue(*dist, options, &entries, &rb, /*sort_entries=*/true,
                         &state, nullptr, /*caps=*/nullptr, 1.0, &pool);
          if (t < d) {
            EXPECT_FALSE(state.found) << "threads " << threads << " at " << t;
          } else {
            ASSERT_TRUE(state.found) << "threads " << threads << " at " << t;
            EXPECT_EQ(oracle.best, state.best)
                << "threads " << threads << " at " << t;
            EXPECT_EQ(d, state.best_distance)
                << "threads " << threads << " at " << t;
          }
        }
      }
    }
  }
}

TEST(KernelParityFuzz, ActiveLevelRespectsCapsAndNeverExceedsCompiled) {
  ClearSimdLevelCap();
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(CompiledSimdLevel()));
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
  SetSimdLevelCap(SimdLevel::kScalar);
  EXPECT_EQ(SimdLevel::kScalar, ActiveSimdLevel());
  ClearSimdLevelCap();
  EXPECT_STREQ("scalar", SimdLevelName(SimdLevel::kScalar));
  EXPECT_STREQ("avx2", SimdLevelName(SimdLevel::kAvx2));
}

// --- ε-decision parity -------------------------------------------------------

/// The per-cell reach DP the bit-row decision replaced: one
/// metric.Distance call per cell, one byte per column. The reference
/// every DfdDecision verdict must equal.
bool ReferenceAtMost(const Trajectory& a, const Trajectory& b,
                     const GroundMetric& metric, double threshold) {
  if (threshold < 0.0) return false;
  const Index la = a.size();
  const Index lb = b.size();
  std::vector<char> reach(static_cast<std::size_t>(lb), 0);
  reach[0] = metric.Distance(a[0], b[0]) <= threshold ? 1 : 0;
  for (Index q = 1; q < lb; ++q) {
    reach[q] =
        (reach[q - 1] != 0 && metric.Distance(a[0], b[q]) <= threshold) ? 1
                                                                        : 0;
  }
  for (Index p = 1; p < la; ++p) {
    char diag = reach[0];
    reach[0] =
        (reach[0] != 0 && metric.Distance(a[p], b[0]) <= threshold) ? 1 : 0;
    bool any = reach[0] != 0;
    for (Index q = 1; q < lb; ++q) {
      const char up = reach[q];
      const bool predecessor_ok = up != 0 || reach[q - 1] != 0 || diag != 0;
      reach[q] =
          (predecessor_ok && metric.Distance(a[p], b[q]) <= threshold) ? 1
                                                                       : 0;
      any = any || reach[q] != 0;
      diag = up;
    }
    if (!any) return false;
  }
  return reach[static_cast<std::size_t>(lb) - 1] != 0;
}

/// A metric the decision has no closed form for (L1 over the
/// coordinates): every cell takes the exact path.
class ManhattanMetric final : public GroundMetric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return std::fabs(a.x - b.x) + std::fabs(a.y - b.y);
  }
  std::string Name() const override { return "manhattan"; }
};

/// A walk of n points: lat/lon around Beijing with ~`step_m` steps under
/// haversine, planar meters far from the origin otherwise (large
/// coordinates, so the squared differences round).
Trajectory DecisionWalk(bool geo, Index n, double step_m, Rng& rng) {
  std::vector<Point> points;
  Point at = geo ? LatLon(39.9 + rng.NextDouble(-0.01, 0.01),
                          116.3 + rng.NextDouble(-0.01, 0.01))
                 : Point(rng.NextDouble(-1e6, 1e6), rng.NextDouble(-1e6, 1e6));
  for (Index i = 0; i < n; ++i) {
    points.push_back(at);
    const double east = rng.NextGaussian(0.0, step_m);
    const double north = rng.NextGaussian(0.0, step_m);
    at = geo ? OffsetByMeters(at, east, north)
             : Point(at.x + east, at.y + north);
  }
  return Trajectory(std::move(points));
}

/// `a` resampled to `n` points, each moved by up to `noise_m`.
Trajectory Follower(bool geo, const Trajectory& a, Index n, double noise_m,
                    Rng& rng) {
  std::vector<Point> points;
  for (Index q = 0; q < n; ++q) {
    const Point& base = a[q * a.size() / n];
    const double east = rng.NextDouble(-noise_m, noise_m);
    const double north = rng.NextDouble(-noise_m, noise_m);
    points.push_back(geo ? OffsetByMeters(base, east, north)
                         : Point(base.x + east, base.y + north));
  }
  return Trajectory(std::move(points));
}

/// `x` moved by `ulps` units in the last place (either direction).
double Ulps(double x, int ulps) {
  const double toward = ulps < 0 ? 0.0 : std::numeric_limits<double>::max();
  for (int k = 0; k < std::abs(ulps); ++k) x = std::nextafter(x, toward);
  return x;
}

/// Asserts, for one pair and threshold: DiscreteFrechetAtMost and
/// DfdDecision::AtMost equal the reference DP, every cell's Within equals
/// `metric.Distance <= θ`, and every row's AnyWithin equals the row's OR.
void CheckDecision(const Trajectory& a, const Trajectory& b,
                   const GroundMetric& metric, double threshold) {
  const bool expected = ReferenceAtMost(a, b, metric, threshold);
  FrechetScratch scratch;
  ASSERT_EQ(expected,
            DiscreteFrechetAtMost(a, b, metric, threshold, &scratch).value())
      << metric.Name() << " la=" << a.size() << " lb=" << b.size()
      << " threshold=" << threshold;

  const DfdDecision decision(metric, threshold);
  std::vector<SphereVec> va;
  std::vector<SphereVec> vb;
  decision.Vectorize(a, &va);
  decision.Vectorize(b, &vb);
  const DfdOperand oa = DfdOperand::Of(a, va);
  const DfdOperand ob = DfdOperand::Of(b, vb);
  if (threshold >= 0.0) {
    ASSERT_EQ(expected, decision.AtMost(oa, ob, &scratch));
  }
  for (Index p = 0; p < a.size(); ++p) {
    bool any = false;
    for (Index q = 0; q < b.size(); ++q) {
      const bool within = metric.Distance(a[p], b[q]) <= threshold;
      any = any || within;
      ASSERT_EQ(within, decision.Within(oa, p, ob, q))
          << metric.Name() << " cell (" << p << ", " << q << ") distance "
          << metric.Distance(a[p], b[q]) << " threshold " << threshold;
    }
    ASSERT_EQ(any, decision.AnyWithin(oa, p, ob)) << "row " << p;
  }
}

/// Thresholds around the pair's DFD (its critical cell's distance) and
/// around one random cell's distance, a few ulps either side.
std::vector<double> ThresholdsNearCritical(const Trajectory& a,
                                           const Trajectory& b,
                                           const GroundMetric& metric,
                                           Rng& rng) {
  const double dfd = DiscreteFrechet(a, b, metric).value();
  const Index p = static_cast<Index>(rng.NextInt(0, a.size() - 1));
  const Index q = static_cast<Index>(rng.NextInt(0, b.size() - 1));
  const double cell = metric.Distance(a[p], b[q]);
  std::vector<double> out;
  for (const double base : {dfd, cell}) {
    for (const int ulps : {-3, -1, 0, 1, 3}) out.push_back(Ulps(base, ulps));
  }
  return out;
}

TEST(DecisionParityFuzz, CriticalCellWithinUlpsOfThreshold) {
  const std::uint64_t seed = FuzzSeed(20261018);
  const int rounds = FuzzRounds(1);
  const std::vector<Index> lengths = {1, 2, 63, 64, 65, 127, 128, 129, 191};
  const HaversineMetric haversine;
  const EuclideanMetric euclidean;
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    for (const bool geo : {true, false}) {
      const GroundMetric& metric =
          geo ? static_cast<const GroundMetric&>(haversine) : euclidean;
      for (const Index la : lengths) {
        // Each length against itself and one other boundary length, so
        // both axes cross the 64-column word boundaries.
        const Index others[] = {
            la, lengths[static_cast<std::size_t>(
                    rng.NextInt(0, static_cast<std::int64_t>(lengths.size()) -
                                       1))]};
        for (const Index lb : others) {
          const Trajectory a = DecisionWalk(geo, la, 8.0, rng);
          const Trajectory b = Follower(geo, a, lb, 15.0, rng);
          for (const double threshold :
               ThresholdsNearCritical(a, b, metric, rng)) {
            CheckDecision(a, b, metric, threshold);
          }
        }
      }
    }
  }
}

TEST(DecisionParityFuzz, ExtremeThresholdsAndOtherMetrics) {
  const std::uint64_t seed = FuzzSeed(977001);
  const HaversineMetric haversine;
  const EuclideanMetric euclidean;
  const ManhattanMetric manhattan;
  const double pi_r = M_PI * kEarthRadiusMeters;
  Rng rng(seed);
  for (const Index n : {1, 2, 64, 65, 129}) {
    // θ = 0: only coincident points are within, so an identical copy
    // matches and a perturbed one does not.
    for (const bool geo : {true, false}) {
      const GroundMetric& metric =
          geo ? static_cast<const GroundMetric&>(haversine) : euclidean;
      const Trajectory a = DecisionWalk(geo, n, 8.0, rng);
      const Trajectory near = Follower(geo, a, n, 1e-6, rng);
      for (const double threshold :
           {0.0, -0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::denorm_min(), 1e-300, 1e-140}) {
        CheckDecision(a, a, metric, threshold);
        CheckDecision(a, near, metric, threshold);
      }
    }
    // θ ≥ πR under haversine: every pair on the globe is within, the
    // antipode included; θ just below the largest distance is not.
    std::vector<Point> scattered;
    std::vector<Point> antipodes;
    for (Index i = 0; i < n; ++i) {
      const Point p = LatLon(rng.NextDouble(-89.0, 89.0),
                             rng.NextDouble(-179.0, 179.0));
      scattered.push_back(p);
      antipodes.push_back(LatLon(-p.lat(), p.lon() > 0.0 ? p.lon() - 180.0
                                                         : p.lon() + 180.0));
    }
    const Trajectory a(std::move(scattered));
    const Trajectory far(std::move(antipodes));
    const double antipode = haversine.Distance(a[0], far[0]);
    for (const double threshold :
         {pi_r, Ulps(pi_r, -2), Ulps(antipode, -1), antipode, 3.0 *
          kEarthRadiusMeters, Ulps(3.0 * kEarthRadiusMeters, -1), 2.0 * pi_r,
          1e300, std::numeric_limits<double>::infinity()}) {
      CheckDecision(a, far, haversine, threshold);
      CheckDecision(a, a, haversine, threshold);
    }
    // Euclidean thresholds whose square overflows or underflows.
    const Trajectory planar = DecisionWalk(false, n, 50.0, rng);
    const Trajectory planar_b = Follower(false, planar, n, 80.0, rng);
    for (const double threshold : {1e200, 1e160, 1e-160, 1e-170}) {
      CheckDecision(planar, planar_b, euclidean, threshold);
    }
    // A metric without a closed form takes the exact path everywhere.
    for (const double threshold :
         ThresholdsNearCritical(planar, planar_b, manhattan, rng)) {
      CheckDecision(planar, planar_b, manhattan, threshold);
    }
    // Coordinates of order 1e-160 (planar meters, or degrees next to
    // lat = lon = 0): every squared distance, and s* near the critical
    // cell, is subnormal.
    for (const bool geo : {true, false}) {
      const GroundMetric& metric =
          geo ? static_cast<const GroundMetric&>(haversine) : euclidean;
      std::vector<Point> tiny_a;
      std::vector<Point> tiny_b;
      for (Index i = 0; i < n; ++i) {
        tiny_a.emplace_back(rng.NextDouble(0.0, 4e-160),
                            rng.NextDouble(0.0, 4e-160));
        tiny_b.emplace_back(rng.NextDouble(0.0, 4e-160),
                            rng.NextDouble(0.0, 4e-160));
      }
      const Trajectory tiny(std::move(tiny_a));
      const Trajectory tiny_near(std::move(tiny_b));
      for (const double threshold :
           ThresholdsNearCritical(tiny, tiny_near, metric, rng)) {
        CheckDecision(tiny, tiny_near, metric, threshold);
      }
    }
  }
}

/// Ground distances read from a table: a point (r, 0) of the first
/// trajectory and (c, 1) of the second are table[r][c] apart. Lets the
/// test plant any within-θ pattern, gaps across word boundaries included.
class TableMetric final : public GroundMetric {
 public:
  explicit TableMetric(std::vector<std::vector<double>> table)
      : table_(std::move(table)) {}
  double Distance(const Point& a, const Point& b) const override {
    const Point& row = a.y == 0.0 ? a : b;
    const Point& col = a.y == 0.0 ? b : a;
    return table_[static_cast<std::size_t>(row.x)]
                 [static_cast<std::size_t>(col.x)];
  }
  std::string Name() const override { return "table"; }

 private:
  std::vector<std::vector<double>> table_;
};

Trajectory Indices(Index n, double side) {
  std::vector<Point> points;
  for (Index i = 0; i < n; ++i) {
    points.emplace_back(static_cast<double>(i), side);
  }
  return Trajectory(std::move(points));
}

/// A table of 1s (beyond θ = 0.5) with 0s on the listed column ranges of
/// each row.
std::vector<std::vector<double>> FreeRuns(
    Index cols, const std::vector<std::vector<std::pair<Index, Index>>>& rows) {
  std::vector<std::vector<double>> table;
  for (const auto& runs : rows) {
    std::vector<double> row(static_cast<std::size_t>(cols), 1.0);
    for (const auto& [first, last] : runs) {
      for (Index q = first; q <= last; ++q) {
        row[static_cast<std::size_t>(q)] = 0.0;
      }
    }
    table.push_back(std::move(row));
  }
  return table;
}

TEST(DecisionParityFuzz, PlantedPatternsAcrossWords) {
  // Row 1 reaches only columns 60 and 100, so row 2's run 60..70 crosses
  // into word 1 where no seed sits: only the add-with-carry reaches
  // 64..70, and row 3 (free from 66) continues from there alone.
  const TableMetric carry(FreeRuns(
      130, {{{0, 100}}, {{60, 60}, {100, 100}}, {{60, 70}}, {{66, 129}}}));
  CheckDecision(Indices(4, 0.0), Indices(130, 1.0), carry, 0.5);
  ASSERT_TRUE(DiscreteFrechetAtMost(Indices(4, 0.0), Indices(130, 1.0), carry,
                                    0.5)
                  .value());

  // Random within-θ patterns of varied density, so reach rows break into
  // runs whose gaps and fills cross the 64-column word boundaries: the
  // add-with-carry, the diagonal spill and the run extension.
  const std::uint64_t seed = FuzzSeed(640064);
  const int rounds = FuzzRounds(40);
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    const Index la = static_cast<Index>(rng.NextInt(1, 12));
    const Index lb = static_cast<Index>(rng.NextInt(60, 200));
    const double density = rng.NextDouble(0.6, 0.98);
    std::vector<std::vector<double>> table(
        static_cast<std::size_t>(la),
        std::vector<double>(static_cast<std::size_t>(lb)));
    for (auto& row : table) {
      for (double& d : row) d = rng.NextBernoulli(density) ? 0.0 : 1.0;
    }
    table.front().front() = 0.0;
    table.back().back() = 0.0;
    const TableMetric metric(std::move(table));
    CheckDecision(Indices(la, 0.0), Indices(lb, 1.0), metric, 0.5);
  }
}

}  // namespace
}  // namespace frechet_motif
