#include "motif/motif.h"

#include "motif/subset_search.h"

namespace frechet_motif {

std::string AlgorithmName(MotifAlgorithm algorithm) {
  switch (algorithm) {
    case MotifAlgorithm::kBruteDp:
      return "BruteDP";
    case MotifAlgorithm::kBtm:
      return "BTM";
    case MotifAlgorithm::kGtm:
      return "GTM";
    case MotifAlgorithm::kGtmStar:
      return "GTM*";
  }
  return "unknown";
}

namespace {

/// Both FindMotif overloads: one trajectory (Problem 1) or two (the cross
/// variant).
template <typename... Trajectories>
StatusOr<MotifResult> Find(const FindMotifOptions& options,
                           const GroundMetric& metric, MotifStats* stats,
                           const Trajectories&... trajectories) {
  // BruteDP ignores ε, so the knob is checked here for every algorithm.
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));
  MotifOptions motif;
  motif.min_length_xi = options.min_length_xi;
  motif.variant = sizeof...(Trajectories) == 2
                      ? MotifVariant::kCrossTrajectory
                      : MotifVariant::kSingleTrajectory;
  motif.threads = options.threads;
  switch (options.algorithm) {
    case MotifAlgorithm::kBruteDp:
      return BruteDpMotif(trajectories..., metric, motif, stats);
    case MotifAlgorithm::kBtm: {
      BtmOptions btm;
      btm.motif = motif;
      btm.approximation_epsilon = options.approximation_epsilon;
      return BtmMotif(trajectories..., metric, btm, stats);
    }
    case MotifAlgorithm::kGtm: {
      GtmOptions gtm;
      gtm.motif = motif;
      gtm.group_size_tau = options.group_size_tau;
      gtm.approximation_epsilon = options.approximation_epsilon;
      return GtmMotif(trajectories..., metric, gtm, stats);
    }
    case MotifAlgorithm::kGtmStar: {
      GtmStarOptions star;
      star.motif = motif;
      star.group_size_tau = options.group_size_tau;
      star.approximation_epsilon = options.approximation_epsilon;
      return GtmStarMotif(trajectories..., metric, star, stats);
    }
  }
  return Status::InvalidArgument("unknown motif algorithm");
}

}  // namespace

StatusOr<MotifResult> FindMotif(const Trajectory& s, const GroundMetric& metric,
                                const FindMotifOptions& options,
                                MotifStats* stats) {
  return Find(options, metric, stats, s);
}

StatusOr<MotifResult> FindMotif(const Trajectory& s, const Trajectory& t,
                                const GroundMetric& metric,
                                const FindMotifOptions& options,
                                MotifStats* stats) {
  return Find(options, metric, stats, s, t);
}

}  // namespace frechet_motif
