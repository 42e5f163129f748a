#ifndef FRECHET_MOTIF_CLUSTER_SUBTRAJECTORY_CLUSTER_H_
#define FRECHET_MOTIF_CLUSTER_SUBTRAJECTORY_CLUSTER_H_

/// Subtrajectory clustering under the discrete Fréchet distance: group the
/// sliding windows of one trajectory into star-shaped clusters around a
/// reference window — a motif generalized from "the best pair" to "all
/// repetitions". Most applications only need ClusterSubtrajectories();
/// BestSubtrajectoryCluster() exposes the single-cluster primitive.

#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "geo/metric.h"
#include "util/status.h"

namespace frechet_motif {

/// Options for subtrajectory clustering (the paper's Section 7 outlook;
/// in the spirit of Buchin et al.'s commuting-pattern detection [3]).
struct ClusterOptions {
  /// Window length in points; every candidate subtrajectory is one window.
  Index window_length = 100;

  /// Stride between candidate window starts (>= 1). Smaller strides find
  /// better-aligned clusters at quadratically higher cost.
  Index stride = 25;

  /// Membership threshold θ (meters): a window joins a cluster when its
  /// DFD to the cluster's reference window is <= θ. Must be finite and
  /// >= 0 (ValidateDfdThreshold).
  double threshold_m = 100.0;

  /// Minimum number of member windows (including the reference) for a
  /// cluster to be reported.
  int min_members = 2;
};

/// A star-shaped subtrajectory cluster: every member window is within the
/// threshold of the reference window, and members are pairwise
/// non-overlapping in time.
struct SubtrajectoryCluster {
  /// The window every member is within the threshold of.
  SubtrajectoryRef reference;
  /// All member windows, including the reference, ascending by start.
  std::vector<SubtrajectoryRef> members;

  /// Number of member windows (reference included).
  int size() const { return static_cast<int>(members.size()); }
};

/// Counters for the clustering run.
struct ClusterStats {
  /// Reference/candidate window pairs considered.
  std::int64_t window_pairs = 0;
  /// Pairs disqualified by the endpoint lower bound alone.
  std::int64_t pruned_endpoints = 0;
  /// Pairs that reached the O(L²) early-abandoning DFD decision.
  std::int64_t decided_exact = 0;

  /// One-line human-readable rendering of the counters, for logs.
  std::string ToString() const;
};

/// Finds the largest cluster: the reference window whose non-overlapping
/// θ-neighbourhood (greedy left-to-right selection) has the most members.
/// Uses the endpoint lower bound before each O(L²) early-abandoning DFD
/// decision. Returns NotFound when no cluster reaches min_members.
StatusOr<SubtrajectoryCluster> BestSubtrajectoryCluster(
    const Trajectory& s, const GroundMetric& metric,
    const ClusterOptions& options, ClusterStats* stats = nullptr);

/// Greedy cover: repeatedly extracts the largest cluster among windows not
/// yet assigned to a cluster, until none reaches min_members. Clusters are
/// pairwise window-disjoint. Returns an empty vector when nothing
/// qualifies.
StatusOr<std::vector<SubtrajectoryCluster>> ClusterSubtrajectories(
    const Trajectory& s, const GroundMetric& metric,
    const ClusterOptions& options, ClusterStats* stats = nullptr);

}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_CLUSTER_SUBTRAJECTORY_CLUSTER_H_
