#ifndef FRECHET_MOTIF_TESTS_STREAM_TEST_UTIL_H_
#define FRECHET_MOTIF_TESTS_STREAM_TEST_UTIL_H_

/// Shared helpers for the streaming tests. A one-member fleet fed one
/// point per call is the streaming reference: the parity suites compare
/// it against from-scratch FindMotif, and larger fleets against it.

#include <optional>
#include <utility>
#include <vector>

#include "geo/metric.h"
#include "stream/motif_fleet_engine.h"
#include "util/status.h"

namespace frechet_motif {
namespace testing_util {

/// A fleet with a single member configured by `options` (whose `threads`
/// also sizes the fleet's pool): one stream (id 0), or with `cross` a
/// window pair (ids 0 and 1).
inline StatusOr<MotifFleetEngine> OneMemberFleet(const StreamOptions& options,
                                                 const GroundMetric& metric,
                                                 bool cross = false) {
  FleetOptions fleet_options;
  fleet_options.stream = options;
  StatusOr<MotifFleetEngine> fleet =
      MotifFleetEngine::Create(fleet_options, metric);
  if (!fleet.ok()) return fleet;
  const Status added = cross ? fleet.value().AddCrossPair().status()
                             : fleet.value().AddStream().status();
  if (!added.ok()) return added;
  return fleet;
}

/// The slide report of a one-arrival call (`Push`), if it made one. One
/// arrival makes at most one member due and the call drains it, so
/// there is never more than one report.
inline StatusOr<std::optional<StreamUpdate>> SoleUpdate(
    StatusOr<FleetReport> report) {
  if (!report.ok()) return report.status();
  std::vector<FleetStreamUpdate>& updates = report.value().updates;
  if (updates.size() > 1) {
    return Status::Internal("one arrival produced several slide reports");
  }
  if (updates.empty()) return std::optional<StreamUpdate>();
  return std::optional<StreamUpdate>(std::move(updates.front().update));
}

}  // namespace testing_util
}  // namespace frechet_motif

#endif  // FRECHET_MOTIF_TESTS_STREAM_TEST_UTIL_H_
