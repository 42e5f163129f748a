#include "cluster/subtrajectory_cluster.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/distance_matrix.h"
#include "similarity/frechet.h"

namespace frechet_motif {

namespace {

Status ValidateInputs(const Trajectory& s, const GroundMetric& metric,
                      const ClusterOptions& options) {
  if (options.window_length < 2) {
    return Status::InvalidArgument("window_length must be >= 2");
  }
  if (options.stride < 1) {
    return Status::InvalidArgument("stride must be >= 1");
  }
  FM_RETURN_IF_ERROR(ValidateDfdThreshold(options.threshold_m, "threshold_m"));
  if (options.min_members < 2) {
    return Status::InvalidArgument("min_members must be >= 2");
  }
  if (s.size() < 2 * options.window_length) {
    return Status::InvalidArgument(
        "trajectory too short for two non-overlapping windows");
  }
  return ValidatePoints(s, metric);
}

/// Candidate window starts over the whole trajectory.
std::vector<Index> WindowStarts(const Trajectory& s,
                                const ClusterOptions& options) {
  std::vector<Index> starts;
  for (Index start = 0; start + options.window_length <= s.size();
       start += options.stride) {
    starts.push_back(start);
  }
  return starts;
}

/// Does window `b_start` match the reference window `a_start` within θ?
/// `s` is the whole trajectory's decision operand.
bool WindowsMatch(const DfdDecision& decision, const DfdOperand& s,
                  Index a_start, Index b_start, const ClusterOptions& options,
                  ClusterStats* stats, FrechetScratch* scratch) {
  if (stats != nullptr) ++stats->window_pairs;
  const Index len = options.window_length;
  // Endpoint lower bound: the coupling pins first to first, last to last.
  if (!decision.Within(s, a_start, s, b_start) ||
      !decision.Within(s, a_start + len - 1, s, b_start + len - 1)) {
    if (stats != nullptr) ++stats->pruned_endpoints;
    return false;
  }
  if (stats != nullptr) ++stats->decided_exact;
  return decision.AtMost(s.Slice(a_start, len), s.Slice(b_start, len),
                         scratch);
}

/// Greedy left-to-right selection of non-overlapping matching windows
/// around the reference, restricted to `allowed` starts.
std::vector<SubtrajectoryRef> CollectMembers(
    const DfdDecision& decision, const DfdOperand& s, Index reference,
    const std::vector<Index>& allowed, const ClusterOptions& options,
    ClusterStats* stats, FrechetScratch* scratch) {
  std::vector<SubtrajectoryRef> members;
  Index next_free = 0;  // first point index not yet covered by a member
  for (const Index start : allowed) {
    if (start < next_free) continue;  // would overlap the previous member
    const bool is_reference = start == reference;
    if (is_reference || WindowsMatch(decision, s, reference, start, options,
                                     stats, scratch)) {
      members.push_back(
          SubtrajectoryRef{start, start + options.window_length - 1});
      next_free = start + options.window_length;
    }
  }
  return members;
}

}  // namespace

std::string ClusterStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "window-pairs=%lld endpoint-pruned=%lld exact-decided=%lld",
                static_cast<long long>(window_pairs),
                static_cast<long long>(pruned_endpoints),
                static_cast<long long>(decided_exact));
  return buf;
}

StatusOr<SubtrajectoryCluster> BestSubtrajectoryCluster(
    const Trajectory& s, const GroundMetric& metric,
    const ClusterOptions& options, ClusterStats* stats) {
  FM_RETURN_IF_ERROR(ValidateInputs(s, metric, options));
  const std::vector<Index> starts = WindowStarts(s, options);

  const DfdDecision decision(metric, options.threshold_m);
  std::vector<SphereVec> vecs;
  decision.Vectorize(s, &vecs);
  const DfdOperand operand = DfdOperand::Of(s, vecs);
  SubtrajectoryCluster best;
  FrechetScratch scratch;  // reused across every window-pair DP
  for (const Index reference : starts) {
    const std::vector<SubtrajectoryRef> members = CollectMembers(
        decision, operand, reference, starts, options, stats, &scratch);
    if (static_cast<int>(members.size()) > best.size()) {
      best.reference = {reference, reference + options.window_length - 1};
      best.members = members;
    }
  }
  if (best.size() < options.min_members) {
    return Status::NotFound("no subtrajectory cluster with at least " +
                            std::to_string(options.min_members) +
                            " members under the threshold");
  }
  return best;
}

StatusOr<std::vector<SubtrajectoryCluster>> ClusterSubtrajectories(
    const Trajectory& s, const GroundMetric& metric,
    const ClusterOptions& options, ClusterStats* stats) {
  FM_RETURN_IF_ERROR(ValidateInputs(s, metric, options));
  std::vector<Index> remaining = WindowStarts(s, options);

  const DfdDecision decision(metric, options.threshold_m);
  std::vector<SphereVec> vecs;
  decision.Vectorize(s, &vecs);
  const DfdOperand operand = DfdOperand::Of(s, vecs);
  std::vector<SubtrajectoryCluster> clusters;
  FrechetScratch scratch;  // reused across every window-pair DP
  while (true) {
    SubtrajectoryCluster best;
    for (const Index reference : remaining) {
      const std::vector<SubtrajectoryRef> members = CollectMembers(
          decision, operand, reference, remaining, options, stats, &scratch);
      if (static_cast<int>(members.size()) > best.size()) {
        best.reference = {reference, reference + options.window_length - 1};
        best.members = members;
      }
    }
    if (best.size() < options.min_members) break;
    clusters.push_back(best);
    // Remove every window overlapping a member of the extracted cluster.
    std::vector<Index> next;
    for (const Index start : remaining) {
      const Index end = start + options.window_length - 1;
      bool overlaps = false;
      for (const SubtrajectoryRef& member : best.members) {
        if (start <= member.last && member.first <= end) {
          overlaps = true;
          break;
        }
      }
      if (!overlaps) next.push_back(start);
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
  return clusters;
}

}  // namespace frechet_motif
