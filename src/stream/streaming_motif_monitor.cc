#include "stream/streaming_motif_monitor.h"

#include <utility>

namespace frechet_motif {

StreamingMotifMonitor::StreamingMotifMonitor(WindowState state)
    : state_(std::move(state)) {}

StatusOr<StreamingMotifMonitor> StreamingMotifMonitor::Create(
    const StreamOptions& options, const GroundMetric& metric) {
  StatusOr<WindowState> state =
      WindowState::Create(options, metric, /*cross=*/false);
  if (!state.ok()) return state.status();
  return StreamingMotifMonitor(std::move(state).value());
}

StatusOr<StreamingMotifMonitor> StreamingMotifMonitor::CreateCross(
    const StreamOptions& options, const GroundMetric& metric) {
  StatusOr<WindowState> state =
      WindowState::Create(options, metric, /*cross=*/true);
  if (!state.ok()) return state.status();
  return StreamingMotifMonitor(std::move(state).value());
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::MaybeSearch() {
  if (!state_.SearchDue()) return std::optional<StreamUpdate>();
  // The pool persists across slides (workers parked between searches) —
  // a per-slide spawn/join would recur for the monitor's lifetime.
  const int threads = ResolveThreadCount(state_.options().threads);
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  StatusOr<StreamUpdate> update =
      state_.RunSearch(threads > 1 ? pool_.get() : nullptr);
  if (!update.ok()) return update.status();
  return std::optional<StreamUpdate>(std::move(update).value());
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::PushSide(
    int side, const Point& p, const double* timestamp) {
  if (side == 1 && !state_.cross()) {
    return Status::FailedPrecondition(
        "PushSecond requires a CreateCross monitor");
  }
  FM_RETURN_IF_ERROR(ValidateArrival(state_.metric(), p, timestamp));
  FM_RETURN_IF_ERROR(state_.Append(side, p, timestamp));
  return MaybeSearch();
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::Push(
    const Point& p) {
  return PushSide(0, p, nullptr);
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::Push(
    const Point& p, double timestamp) {
  return PushSide(0, p, &timestamp);
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::PushSecond(
    const Point& p) {
  return PushSide(1, p, nullptr);
}

StatusOr<std::optional<StreamUpdate>> StreamingMotifMonitor::PushSecond(
    const Point& p, double timestamp) {
  return PushSide(1, p, &timestamp);
}

StatusOr<std::vector<StreamUpdate>> StreamingMotifMonitor::PushBatch(
    const std::vector<Point>& points) {
  // The whole batch is checked before any point is applied.
  for (const Point& p : points) {
    FM_RETURN_IF_ERROR(ValidateArrival(state_.metric(), p, nullptr));
  }
  std::vector<StreamUpdate> updates;
  for (const Point& p : points) {
    StatusOr<std::optional<StreamUpdate>> u = Push(p);
    if (!u.ok()) return u.status();
    if (u.value().has_value()) updates.push_back(std::move(*u.value()));
  }
  return updates;
}

}  // namespace frechet_motif
