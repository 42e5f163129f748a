// Randomized enforcement of the (1+ε) approximation contract
// (approximation_epsilon in FindMotifOptions / TopKOptions /
// StreamOptions): for every algorithm and every tested ε, the reported
// distance is a real candidate distance within (1+ε) of the exact
// optimum — never below it — and ε = 0 is bit-for-bit the exact search.
// Random trajectories, random ξ, both metrics; seeds reproduce via
// FMOTIF_FUZZ_SEED exactly like the other fuzz suites.

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "data/datasets.h"
#include "geo/metric.h"
#include "gtest/gtest.h"
#include "motif/motif.h"
#include "motif/top_k.h"
#include "stream/motif_fleet_engine.h"
#include "stream_test_util.h"
#include "test_util.h"
#include "util/random.h"

namespace frechet_motif {
namespace {

constexpr MotifAlgorithm kPrunedAlgorithms[] = {
    MotifAlgorithm::kBtm, MotifAlgorithm::kGtm, MotifAlgorithm::kGtmStar};

const char* Name(MotifAlgorithm a) {
  switch (a) {
    case MotifAlgorithm::kBruteDp:
      return "brute";
    case MotifAlgorithm::kBtm:
      return "btm";
    case MotifAlgorithm::kGtm:
      return "gtm";
    case MotifAlgorithm::kGtmStar:
      return "gtm_star";
  }
  return "?";
}

/// exact <= reported <= (1+eps) * exact. The lower bound holds because an
/// approximate search still reports the distance of a real candidate; the
/// upper bound is the advertised guarantee.
void ExpectWithinContract(double reported, double exact, double eps) {
  EXPECT_GE(reported, exact);
  EXPECT_LE(reported, (1.0 + eps) * exact * (1.0 + 1e-12));
}

TEST(ApproxContractFuzz, BatchAlgorithmsWithinOnePlusEps) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260808);
  const int rounds = testing_util::FuzzRounds(5);
  Rng rng(seed);
  const HaversineMetric haversine;
  const EuclideanMetric euclidean;
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(6, 18));
    const Index n = 2 * xi + 4 + static_cast<Index>(rng.NextInt(20, 90));
    const bool geo = rng.NextInt(0, 1) == 0;
    const GroundMetric& metric =
        geo ? static_cast<const GroundMetric&>(haversine)
            : static_cast<const GroundMetric&>(euclidean);
    Trajectory t;
    if (geo) {
      DatasetOptions data;
      data.length = n;
      data.seed = seed + 100 + round;
      t = MakeDataset(DatasetKind::kGeoLifeLike, data).value();
    } else {
      t = testing_util::MakePlanarWalk(n, seed + 100 + round);
    }

    for (const MotifAlgorithm algorithm : kPrunedAlgorithms) {
      FindMotifOptions exact_options;
      exact_options.algorithm = algorithm;
      exact_options.min_length_xi = xi;
      const auto exact = FindMotif(t, metric, exact_options);
      ASSERT_TRUE(exact.ok()) << exact.status();

      for (const double eps :
           {0.0, 0.01, 0.1, rng.NextDouble(0.0, 0.5)}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " round " << round << " "
                     << Name(algorithm) << " eps=" << eps << " xi=" << xi
                     << " n=" << n << (geo ? " haversine" : " euclidean"));
        FindMotifOptions options = exact_options;
        options.approximation_epsilon = eps;
        const auto approx = FindMotif(t, metric, options);
        ASSERT_TRUE(approx.ok()) << approx.status();
        ASSERT_EQ(exact.value().found, approx.value().found);
        if (!exact.value().found) continue;
        ExpectWithinContract(approx.value().distance, exact.value().distance,
                             eps);
        if (eps == 0.0) {
          // ε = 0 is the exact search, bit for bit: same candidate, same
          // distance bits.
          EXPECT_EQ(exact.value().best, approx.value().best);
          EXPECT_EQ(0, std::memcmp(&exact.value().distance,
                                   &approx.value().distance, sizeof(double)));
        }
      }
    }
  }
}

TEST(ApproxContractFuzz, TopKPerRankContract) {
  const std::uint64_t seed = testing_util::FuzzSeed(20260809);
  const int rounds = testing_util::FuzzRounds(4);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(5, 12));
    const Index n = 2 * xi + 4 + static_cast<Index>(rng.NextInt(20, 70));
    const Trajectory t = testing_util::MakePlanarWalk(n, seed + 300 + round);

    TopKOptions exact_options;
    exact_options.k = static_cast<int>(rng.NextInt(2, 6));
    exact_options.motif.min_length_xi = xi;
    exact_options.min_start_separation = 1;  // the per-rank contract's domain
    const auto exact = TopKMotifs(t, metric, exact_options);
    ASSERT_TRUE(exact.ok()) << exact.status();

    for (const double eps : {0.0, 0.02, 0.15}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " round " << round << " eps=" << eps
                   << " k=" << exact_options.k << " xi=" << xi << " n=" << n);
      TopKOptions options = exact_options;
      options.approximation_epsilon = eps;
      const auto approx = TopKMotifs(t, metric, options);
      ASSERT_TRUE(approx.ok()) << approx.status();
      ASSERT_EQ(exact.value().size(), approx.value().size());
      for (std::size_t r = 0; r < exact.value().size(); ++r) {
        SCOPED_TRACE(::testing::Message() << "rank " << r);
        ExpectWithinContract(approx.value()[r].distance,
                             exact.value()[r].distance, eps);
        if (eps == 0.0) {
          EXPECT_EQ(exact.value()[r].best, approx.value()[r].best);
          EXPECT_EQ(0, std::memcmp(&exact.value()[r].distance,
                                   &approx.value()[r].distance,
                                   sizeof(double)));
        }
      }
    }
  }
}

TEST(ApproxContractFuzz, TopKThreadedMatchesSerialAtEveryEps) {
  // Satellite of the ThreadPool plumbing through TopKMotifs' bound
  // precompute: threads=4 must be bit-identical to serial, exact and
  // approximate alike.
  const std::uint64_t seed = testing_util::FuzzSeed(20260810);
  const int rounds = testing_util::FuzzRounds(3);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(5, 12));
    const Index n = 2 * xi + 4 + static_cast<Index>(rng.NextInt(30, 90));
    const Trajectory t = testing_util::MakePlanarWalk(n, seed + 500 + round);
    for (const double eps : {0.0, 0.05}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " round "
                                        << round << " eps=" << eps
                                        << " xi=" << xi << " n=" << n);
      TopKOptions serial;
      serial.k = 4;
      serial.motif.min_length_xi = xi;
      serial.approximation_epsilon = eps;
      TopKOptions threaded = serial;
      threaded.motif.threads = 4;
      const auto a = TopKMotifs(t, metric, serial);
      const auto b = TopKMotifs(t, metric, threaded);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ(a.value().size(), b.value().size());
      for (std::size_t r = 0; r < a.value().size(); ++r) {
        EXPECT_EQ(a.value()[r].best, b.value()[r].best) << "rank " << r;
        EXPECT_EQ(0, std::memcmp(&a.value()[r].distance,
                                 &b.value()[r].distance, sizeof(double)))
            << "rank " << r;
      }
    }
  }
}

TEST(ApproxContractFuzz, StreamingPerWindowContract) {
  // Every slide of an ε-relaxed stream stays within (1+ε) of the exact
  // from-scratch answer on the identical window — per window, not
  // compounding — and the ε=0 stream is bit-identical to it.
  const std::uint64_t seed = testing_util::FuzzSeed(20260811);
  const int rounds = testing_util::FuzzRounds(4);
  Rng rng(seed);
  const EuclideanMetric metric;
  for (int round = 0; round < rounds; ++round) {
    const Index xi = static_cast<Index>(rng.NextInt(5, 12));
    StreamOptions base;
    base.min_length_xi = xi;
    base.window_length =
        2 * xi + 4 + static_cast<Index>(rng.NextInt(0, 40));
    base.slide_step = static_cast<Index>(rng.NextInt(1, base.window_length));
    const Index points =
        base.window_length + static_cast<Index>(rng.NextInt(40, 160));
    const Trajectory t =
        testing_util::MakePlanarWalk(points, seed + 700 + round);
    const double eps = round == 0 ? 0.05 : rng.NextDouble(0.0, 0.3);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " round " << round << " eps=" << eps
                 << " W=" << base.window_length << " slide=" << base.slide_step
                 << " xi=" << xi << " n=" << points);

    StreamOptions relaxed = base;
    relaxed.approximation_epsilon = eps;
    auto exact_stream = testing_util::OneMemberFleet(base, metric);
    auto approx_stream = testing_util::OneMemberFleet(relaxed, metric);
    ASSERT_TRUE(exact_stream.ok()) << exact_stream.status();
    ASSERT_TRUE(approx_stream.ok()) << approx_stream.status();

    int slides = 0;
    for (Index k = 0; k < t.size(); ++k) {
      auto eu = testing_util::SoleUpdate(exact_stream.value().Push(0, t[k]));
      auto au = testing_util::SoleUpdate(approx_stream.value().Push(0, t[k]));
      ASSERT_TRUE(eu.ok()) << eu.status();
      ASSERT_TRUE(au.ok()) << au.status();
      ASSERT_EQ(eu.value().has_value(), au.value().has_value());
      if (!au.value().has_value()) continue;
      ++slides;
      // The exact leg is itself checked against a from-scratch search by
      // the streaming parity suite; here it serves as the per-window
      // exact optimum.
      const double exact = eu.value()->motif.distance;
      const double reported = au.value()->motif.distance;
      ExpectWithinContract(reported, exact, eps);
      EXPECT_EQ(eps, au.value()->approximation_epsilon);
      EXPECT_EQ(0.0, eu.value()->approximation_epsilon);
      if (eps == 0.0) {
        EXPECT_EQ(eu.value()->motif.best, au.value()->motif.best);
        EXPECT_EQ(0, std::memcmp(&exact, &reported, sizeof(double)));
      }
    }
    EXPECT_GT(slides, 0);
  }
}

TEST(ApproxContractFuzz, NegativeEpsilonIsRejectedEverywhere) {
  // Negative, NaN and infinite ε are all rejected by every entry point —
  // a NaN ε would otherwise compare false everywhere and silently turn
  // pruning off.
  const EuclideanMetric metric;
  const Trajectory t = testing_util::MakePlanarWalk(40, 1);
  for (const double eps : {-0.1, -1e-9, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(::testing::Message() << "eps=" << eps);
    FindMotifOptions motif;
    motif.min_length_xi = 6;
    motif.approximation_epsilon = eps;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              FindMotif(t, metric, motif).status().code());

    TopKOptions topk;
    topk.motif.min_length_xi = 6;
    topk.approximation_epsilon = eps;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              TopKMotifs(t, metric, topk).status().code());

    StreamOptions stream;
    stream.window_length = 30;
    stream.slide_step = 5;
    stream.min_length_xi = 6;
    stream.approximation_epsilon = eps;
    FleetOptions fleet_options;
    fleet_options.stream = stream;
    EXPECT_EQ(StatusCode::kInvalidArgument,
              MotifFleetEngine::Create(fleet_options, metric).status().code());
    // The per-member path validates too.
    fleet_options.stream.approximation_epsilon = 0.0;
    auto fleet = MotifFleetEngine::Create(fleet_options, metric);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    EXPECT_EQ(StatusCode::kInvalidArgument,
              fleet.value().AddStream(stream).status().code());
  }
}

}  // namespace
}  // namespace frechet_motif
