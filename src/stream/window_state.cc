#include "stream/window_state.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "motif/bounds.h"
#include "motif/subset_search.h"
#include "util/timer.h"

namespace frechet_motif {

Status ValidateArrival(const GroundMetric& metric, const Point& p,
                       const double* timestamp) {
  if (!p.IsFinite() || (timestamp != nullptr && !std::isfinite(*timestamp))) {
    return Status::InvalidArgument("non-finite coordinate or timestamp");
  }
  if (dynamic_cast<const HaversineMetric*>(&metric) != nullptr &&
      (std::fabs(p.lat()) > 90.0 || std::fabs(p.lon()) > 180.0)) {
    return Status::InvalidArgument(
        "latitude/longitude out of range (|lat| <= 90, |lon| <= 180)");
  }
  return Status::Ok();
}

WindowState::WindowState(const StreamOptions& options,
                         const GroundMetric& metric, bool cross)
    : options_(options),
      metric_(&metric),
      cross_(cross),
      haversine_(dynamic_cast<const HaversineMetric*>(&metric) != nullptr),
      ring_(options.window_length, options.window_length) {}

StatusOr<WindowState> WindowState::Create(const StreamOptions& options,
                                          const GroundMetric& metric,
                                          bool cross) {
  if (options.slide_step < 1) {
    return Status::InvalidArgument("StreamOptions::slide_step must be >= 1");
  }
  if (options.approximation_epsilon < 0.0) {
    return Status::InvalidArgument(
        "StreamOptions::approximation_epsilon must be >= 0");
  }
  MotifOptions motif;
  motif.min_length_xi = options.min_length_xi;
  motif.variant = cross ? MotifVariant::kCrossTrajectory
                        : MotifVariant::kSingleTrajectory;
  FM_RETURN_IF_ERROR(
      ValidateMotifInput(motif, options.window_length, options.window_length));
  return WindowState(options, metric, cross);
}

MotifOptions WindowState::SearchMotifOptions() const {
  MotifOptions motif;
  motif.min_length_xi = options_.min_length_xi;
  motif.variant = cross_ ? MotifVariant::kCrossTrajectory
                         : MotifVariant::kSingleTrajectory;
  motif.threads = options_.threads;
  return motif;
}

Status WindowState::Append(int side, const Point& p, const double* timestamp) {
  std::deque<Point>& window = side == 0 ? window_ : second_window_;
  std::deque<SphereVec>& vecs = side == 0 ? vecs_ : second_vecs_;
  std::deque<double>& times = side == 0 ? times_ : second_times_;
  bool& timestamped = side == 0 ? timestamped_ : second_timestamped_;

  if (window.empty()) {
    timestamped = timestamp != nullptr;
  } else if (timestamped != (timestamp != nullptr)) {
    return Status::InvalidArgument(
        "cannot mix timestamped and bare pushes on one stream");
  }

  const bool full =
      static_cast<Index>(window.size()) == options_.window_length;
  // The ring evicts the matching row/column itself inside
  // AppendRow/AppendCol/AppendPoint; only the point-side caches are
  // advanced here.
  if (full) {
    window.pop_front();
    if (haversine_) vecs.pop_front();
    if (timestamped) times.pop_front();
  }

  SphereVec pv;
  if (haversine_) pv = ToSphereVec(p);

  // Fresh ground distances, computed exactly as DistanceMatrix::Build
  // computes them (cached sphere vectors for haversine, metric calls
  // otherwise) so ring cells are bit-identical to a fresh matrix. The
  // haversine path batches each append: the opposite side's vectors are
  // staged into a contiguous scratch buffer, the fresh cells computed with
  // one SphereVecDistanceBatch call, and the ring bulk-copies the buffer —
  // no per-cell std::function dispatch. SphereVecDistanceMeters is exactly
  // symmetric (the chord terms are squared), so one buffer serves both the
  // new row and the new column of the self-matrix.
  if (!cross_) {
    if (haversine_) {
      batch_vecs_.assign(vecs_.begin(), vecs_.end());
      batch_dists_.resize(batch_vecs_.size());
      SphereVecDistanceBatch(pv, batch_vecs_.data(), batch_vecs_.size(),
                             batch_dists_.data());
      ring_.AppendPointFromBuffers(batch_dists_.data(), batch_dists_.data(),
                                   SphereVecDistanceMeters(pv, pv));
    } else {
      ring_.AppendPoint(
          [&](Index k) { return metric_->Distance(p, window_[k]); },
          [&](Index k) { return metric_->Distance(window_[k], p); },
          metric_->Distance(p, p));
    }
    engine_stats_.ground_distances_computed +=
        2 * static_cast<std::int64_t>(window_.size()) + 1;
  } else if (side == 0) {
    if (haversine_) {
      batch_vecs_.assign(second_vecs_.begin(), second_vecs_.end());
      batch_dists_.resize(batch_vecs_.size());
      SphereVecDistanceBatch(pv, batch_vecs_.data(), batch_vecs_.size(),
                             batch_dists_.data());
      ring_.AppendRowFromBuffer(batch_dists_.data());
    } else {
      ring_.AppendRow(
          [&](Index j) { return metric_->Distance(p, second_window_[j]); });
    }
    engine_stats_.ground_distances_computed +=
        static_cast<std::int64_t>(second_window_.size());
  } else {
    if (haversine_) {
      batch_vecs_.assign(vecs_.begin(), vecs_.end());
      batch_dists_.resize(batch_vecs_.size());
      SphereVecDistanceBatch(pv, batch_vecs_.data(), batch_vecs_.size(),
                             batch_dists_.data());
      ring_.AppendColFromBuffer(batch_dists_.data());
    } else {
      ring_.AppendCol(
          [&](Index i) { return metric_->Distance(window_[i], p); });
    }
    engine_stats_.ground_distances_computed +=
        static_cast<std::int64_t>(window_.size());
  }

  window.push_back(p);
  if (haversine_) vecs.push_back(pv);
  if (timestamped) times.push_back(*timestamp);

  if (side == 0) {
    ++pushed_first_;
    ++appended_since_search_first_;
  } else {
    ++pushed_second_;
    ++appended_since_search_second_;
  }
  ++engine_stats_.points_ingested;
  return Status::Ok();
}

bool WindowState::SearchDue() const {
  const bool first_full =
      static_cast<Index>(window_.size()) == options_.window_length;
  if (!cross_) {
    if (!first_full) return false;
    return !searched_once_ ||
           appended_since_search_first_ >= options_.slide_step;
  }
  const bool second_full =
      static_cast<Index>(second_window_.size()) == options_.window_length;
  if (!first_full || !second_full) return false;
  return !searched_once_ ||
         appended_since_search_first_ + appended_since_search_second_ >=
             options_.slide_step;
}

StatusOr<StreamUpdate> WindowState::RunSearch(ThreadPool* pool) {
  const Index n = static_cast<Index>(window_.size());
  const Index m = cross_ ? static_cast<Index>(second_window_.size()) : n;
  const MotifOptions motif = SearchMotifOptions();
  const Index xi = motif.min_length_xi;

  StreamUpdate update;
  update.window_start = pushed_first_ - n;
  update.window_start_second = cross_ ? pushed_second_ - m : 0;
  update.window_points = n;
  update.approximation_epsilon = options_.approximation_epsilon;

  Timer timer;

  // Bounds: maintained incrementally in both modes — the single window
  // slides one axis, the cross window pair slides its two axes
  // independently (IncrementalRelaxedBounds carries each minimum across
  // the slide unless its achiever was evicted). No ground distance is
  // recomputed and no per-slide Build is paid; the snapshot is
  // bit-identical to a fresh Build over the same ring.
  RelaxedBounds rb;
  if (!cross_) {
    if (!searched_once_) {
      bounds_.Reset(ring_, xi);
    } else {
      bounds_.Slide(ring_, xi, appended_since_search_first_);
    }
  } else {
    if (!searched_once_) {
      bounds_.ResetCross(ring_);
    } else {
      bounds_.SlideCross(ring_, appended_since_search_first_,
                         appended_since_search_second_);
    }
  }
  rb = bounds_.Snapshot(xi);
  engine_stats_.bound_rescans = bounds_.rescans();

  // Threshold carry: sound iff the previous best pair is still inside the
  // window after the slide (its distance is then achievable, so pruning
  // against it can never discard the optimum — see the proof in
  // streaming_motif_monitor.h).
  const Index shift_row = appended_since_search_first_;
  const Index shift_col = cross_ ? appended_since_search_second_ : shift_row;
  if (searched_once_ && have_previous_ && previous_best_.i >= shift_row &&
      (cross_ ? previous_best_.j >= shift_col : true)) {
    update.seeded = true;
    update.seed_threshold = previous_distance_;
  }

  // The relaxed bounding search of BtmMotif (Algorithm 2 with the
  // Section 4.3 bounds), mirrored verbatim so the result is bit-identical
  // to the from-scratch baseline — the only difference is the seeded
  // initial threshold.
  std::vector<SubsetEntry> entries;
  entries.reserve(static_cast<std::size_t>(CountValidSubsets(motif, n, m)));
  ForEachValidSubset(motif, n, m, [&](Index i, Index j) {
    entries.push_back(SubsetEntry{0.0, i, j});
  });
  FillSubsetBounds(&entries, pool, [&](Index i, Index j) {
    const double cell = LbCell(ring_, i, j);
    const double cross_lb = rb.StartCross(i, j);
    const double band = std::max(rb.BandRow(j), rb.BandCol(i));
    return std::max({cell, cross_lb, band});
  });
  update.stats.total_subsets = static_cast<std::int64_t>(entries.size());

  // Dirty-region restriction (seeded slides only). Clean candidates —
  // those whose points all survive from the previous window — were valid
  // candidates there, so their DFD is >= the previous optimum and they
  // cannot beat the carried threshold. Only *dirty* candidates can, and a
  // dirty candidate must extend to the dirty frontier: in the single-
  // trajectory problem its second subtrajectory ends at je >= D (the
  // first freshly appended index), so its coupling path crosses every
  // column y in [j+1, D] and its DFD is >= max of Rmin over [j, D-1]
  // (Lemma 2 per crossed column). That bound grows with the subset's
  // distance from the frontier, which is what makes per-slide work scale
  // with the dirty region instead of the window: subsets far from the
  // new points are dropped from the queue before any DP work. In cross
  // mode a dirty candidate reaches either frontier, so the two one-sided
  // bounds combine by min. Dropping a subset here never loses a strict
  // improvement (clean >= threshold by the argument above, dirty >
  // threshold by the bound) nor a tie that would win the canonical
  // order (the bound prunes only strictly-above-threshold subsets, so
  // every threshold-achiever survives into the queue); when nothing
  // precedes the previous pair, the slide falls back to it, shifted.
  // (1+ε) pruning: every lower-bound comparison against the threshold is
  // scaled by lb_scale. Soundness per window: an evaluated candidate's
  // distance is exact, and a pruned candidate has d > T/(1+ε) where T is
  // either an exactly-achievable in-window distance (the carry) or the
  // running best — so the reported distance is at most (1+ε) times the
  // window optimum, and the guarantee does not compound across slides.
  const double lb_scale = 1.0 + options_.approximation_epsilon;

  if (update.seeded) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double threshold = update.seed_threshold;
    const std::size_t before = entries.size();
    if (!cross_) {
      // Single-trajectory frontier bound, per second-start j:
      //   G[j] = max over y in [j+1, D] of  min over c in [0, j-1] dG(c, y)
      // (D = first dirty column). Valid because a dirty candidate's
      // path crosses every column y in [j+1, D] on some row c <= j-1
      // (rows never exceed ie < j). The j-restricted prefix minimum is
      // what gives the bound teeth: the unrestricted column minimum is
      // dominated by tiny near-diagonal self-distances. O(W²) matrix
      // reads per seeded slide — cheap next to the DP cells it removes.
      const Index d_col = m - shift_col;
      std::vector<double> g(m, -kInf);
      std::vector<double> prefix(m, kInf);  // min over rows [0, j-1]
      for (Index y = 0; y < m; ++y) prefix[y] = ring_.Distance(0, y);
      // j >= d_col has an empty frontier range (g stays -inf), so the
      // scan — and the prefix maintenance feeding it — stops there.
      for (Index j = 1; j < d_col; ++j) {
        double running = -kInf;
        for (Index y = d_col; y > j; --y) {
          if (prefix[y] > running) running = prefix[y];
        }
        g[j] = running;
        for (Index y = 0; y <= d_col; ++y) {
          const double d = ring_.Distance(j, y);
          if (d < prefix[y]) prefix[y] = d;
        }
      }
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&](const SubsetEntry& e) {
                                     return g[e.j] * lb_scale > threshold;
                                   }),
                    entries.end());
    } else {
      // Cross-trajectory: a dirty candidate reaches either frontier, so
      // the one-sided crossing bounds (suffix-max of the full-range
      // Rmin/Cmin, which have no diagonal weakness here) combine by min.
      const Index d_col = m - shift_col;
      const Index d_row = n - shift_row;
      std::vector<double> dirty_row(m, kInf);
      if (shift_col > 0) {
        double running = -kInf;
        for (Index y = d_col - 1; y >= 0; --y) {
          running = std::max(running, rb.Rmin(y));
          dirty_row[y] = running;
        }
        for (Index y = d_col; y < m; ++y) dirty_row[y] = -kInf;
      }
      std::vector<double> dirty_col(n, kInf);
      if (shift_row > 0) {
        double running = -kInf;
        for (Index x = d_row - 1; x >= 0; --x) {
          running = std::max(running, rb.Cmin(x));
          dirty_col[x] = running;
        }
        for (Index x = d_row; x < n; ++x) dirty_col[x] = -kInf;
      }
      entries.erase(
          std::remove_if(entries.begin(), entries.end(),
                         [&](const SubsetEntry& e) {
                           return std::min(dirty_col[e.i], dirty_row[e.j]) *
                                      lb_scale >
                                  threshold;
                         }),
          entries.end());
    }
    update.stats.pruned_by_band +=
        static_cast<std::int64_t>(before - entries.size());
  }

  update.stats.memory.Add(ring_.MemoryBytes());
  update.stats.memory.Add(rb.MemoryBytes());
  update.stats.memory.Add(entries.capacity() * sizeof(SubsetEntry));
  update.stats.memory.Add(2 * static_cast<std::size_t>(m) * sizeof(double));
  update.stats.precompute_seconds += timer.ElapsedSeconds();

  timer.Restart();
  SearchState state;
  state.threshold = update.seed_threshold;
  RunSubsetQueue(ring_, motif, &entries, &rb, /*use_end_cross=*/true,
                 /*sort_entries=*/true, &state, &update.stats,
                 /*caps=*/nullptr, lb_scale, pool);
  update.stats.search_seconds += timer.ElapsedSeconds();

  // Resolve the seeded search against the previous optimum under the
  // canonical (distance, candidate) order. The previous pair — shifted
  // into the new coordinates — is the order-minimum among *clean*
  // achievers (it was the whole previous window's minimum and candidate
  // order is shift-invariant); the search saw every dirty achiever. The
  // smaller of the two is therefore exactly what a from-scratch run
  // reports, ties included.
  Candidate shifted = previous_best_;
  shifted.i -= shift_row;
  shifted.ie -= shift_row;
  shifted.j -= cross_ ? shift_col : shift_row;
  shifted.je -= cross_ ? shift_col : shift_row;
  const bool improved =
      state.found &&
      (state.best_distance < previous_distance_ ||
       (state.best_distance == previous_distance_ &&
        CandidateOrderedBefore(state.best, shifted)));
  if (update.seeded && !improved) {
    update.carried = true;
    update.motif.best = shifted;
    update.motif.distance = previous_distance_;
    update.motif.found = true;
  } else {
    update.motif.best = state.best;
    update.motif.distance = state.best_distance;
    update.motif.found = state.found;
  }

  previous_best_ = update.motif.best;
  previous_distance_ = update.motif.distance;
  have_previous_ = update.motif.found;
  searched_once_ = true;
  appended_since_search_first_ = 0;
  appended_since_search_second_ = 0;

  ++engine_stats_.searches;
  if (update.seeded) ++engine_stats_.seeded_searches;
  engine_stats_.dfd_cells_computed += update.stats.dfd_cells_computed;
  return update;
}

namespace {

Trajectory AssembleWindow(const std::deque<Point>& window,
                          const std::deque<double>& times, bool timestamped) {
  std::vector<Point> points(window.begin(), window.end());
  if (!timestamped) return Trajectory(std::move(points));
  return Trajectory(std::move(points),
                    std::vector<double>(times.begin(), times.end()));
}

}  // namespace

Trajectory WindowState::WindowTrajectory() const {
  return AssembleWindow(window_, times_, timestamped_);
}

Trajectory WindowState::SecondWindowTrajectory() const {
  return AssembleWindow(second_window_, second_times_, second_timestamped_);
}

RelaxedBounds WindowState::CurrentBounds() const {
  return bounds_.Snapshot(options_.min_length_xi);
}

namespace {

void SavePointDeque(BinaryWriter* writer, const std::deque<Point>& points) {
  writer->PutU64(points.size());
  for (const Point& p : points) {
    writer->PutDouble(p.x);
    writer->PutDouble(p.y);
  }
}

Status LoadPointDeque(BinaryReader* reader, std::deque<Point>* points) {
  std::uint64_t size = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&size));
  points->clear();
  for (std::uint64_t k = 0; k < size; ++k) {
    Point p;
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.y));
    points->push_back(p);
  }
  return Status::Ok();
}

void SaveTimeDeque(BinaryWriter* writer, const std::deque<double>& times) {
  writer->PutU64(times.size());
  for (const double t : times) writer->PutDouble(t);
}

Status LoadTimeDeque(BinaryReader* reader, std::deque<double>* times) {
  std::uint64_t size = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&size));
  times->clear();
  for (std::uint64_t k = 0; k < size; ++k) {
    double t = 0.0;
    FM_RETURN_IF_ERROR(reader->GetDouble(&t));
    times->push_back(t);
  }
  return Status::Ok();
}

}  // namespace

void WindowState::SaveTo(BinaryWriter* writer) const {
  // Options echo: RestoreFrom rejects a snapshot taken under a
  // different window geometry. The thread count is deliberately not
  // echoed — it is a runtime choice with bit-identical results.
  writer->PutBool(cross_);
  writer->PutI32(options_.window_length);
  writer->PutI32(options_.slide_step);
  writer->PutI32(options_.min_length_xi);
  writer->PutDouble(options_.approximation_epsilon);

  SavePointDeque(writer, window_);
  SavePointDeque(writer, second_window_);
  writer->PutBool(timestamped_);
  writer->PutBool(second_timestamped_);
  SaveTimeDeque(writer, times_);
  SaveTimeDeque(writer, second_times_);

  writer->PutI64(pushed_first_);
  writer->PutI64(pushed_second_);
  writer->PutI32(appended_since_search_first_);
  writer->PutI32(appended_since_search_second_);
  writer->PutBool(searched_once_);
  writer->PutBool(have_previous_);
  writer->PutI32(previous_best_.i);
  writer->PutI32(previous_best_.ie);
  writer->PutI32(previous_best_.j);
  writer->PutI32(previous_best_.je);
  writer->PutDouble(previous_distance_);

  writer->PutI64(engine_stats_.points_ingested);
  writer->PutI64(engine_stats_.searches);
  writer->PutI64(engine_stats_.seeded_searches);
  writer->PutI64(engine_stats_.ground_distances_computed);
  writer->PutI64(engine_stats_.dfd_cells_computed);
  writer->PutI64(engine_stats_.bound_rescans);

  // Ring matrix contents, logical row-major. The physical head
  // positions are invisible through the logical API, so only the
  // logical cells need to survive; RestoreFrom re-appends them.
  const Index rows = ring_.rows();
  const Index cols = ring_.cols();
  writer->PutI32(rows);
  writer->PutI32(cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) writer->PutDouble(ring_.Distance(i, j));
  }

  bounds_.SaveTo(writer);
}

StatusOr<WindowState> WindowState::RestoreFrom(BinaryReader* reader,
                                               const StreamOptions& options,
                                               const GroundMetric& metric) {
  bool cross = false;
  Index window_length = 0;
  Index slide_step = 0;
  Index xi = 0;
  double epsilon = 0.0;
  FM_RETURN_IF_ERROR(reader->GetBool(&cross));
  FM_RETURN_IF_ERROR(reader->GetI32(&window_length));
  FM_RETURN_IF_ERROR(reader->GetI32(&slide_step));
  FM_RETURN_IF_ERROR(reader->GetI32(&xi));
  FM_RETURN_IF_ERROR(reader->GetDouble(&epsilon));
  if (window_length != options.window_length ||
      slide_step != options.slide_step || xi != options.min_length_xi ||
      epsilon != options.approximation_epsilon) {
    return Status::FailedPrecondition(
        "window snapshot was taken under different stream options "
        "(window length / slide step / xi / approximation epsilon)");
  }

  StatusOr<WindowState> created = Create(options, metric, cross);
  if (!created.ok()) return created.status();
  WindowState state = std::move(created).value();

  FM_RETURN_IF_ERROR(LoadPointDeque(reader, &state.window_));
  FM_RETURN_IF_ERROR(LoadPointDeque(reader, &state.second_window_));
  FM_RETURN_IF_ERROR(reader->GetBool(&state.timestamped_));
  FM_RETURN_IF_ERROR(reader->GetBool(&state.second_timestamped_));
  FM_RETURN_IF_ERROR(LoadTimeDeque(reader, &state.times_));
  FM_RETURN_IF_ERROR(LoadTimeDeque(reader, &state.second_times_));
  if (static_cast<Index>(state.window_.size()) > options.window_length ||
      static_cast<Index>(state.second_window_.size()) >
          options.window_length) {
    return Status::DataLoss("window snapshot exceeds the window capacity");
  }
  if ((state.timestamped_ && state.times_.size() != state.window_.size()) ||
      (!state.timestamped_ && !state.times_.empty()) ||
      (state.second_timestamped_ &&
       state.second_times_.size() != state.second_window_.size()) ||
      (!state.second_timestamped_ && !state.second_times_.empty())) {
    return Status::DataLoss(
        "window snapshot timestamps do not match its points");
  }

  FM_RETURN_IF_ERROR(reader->GetI64(&state.pushed_first_));
  FM_RETURN_IF_ERROR(reader->GetI64(&state.pushed_second_));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.appended_since_search_first_));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.appended_since_search_second_));
  FM_RETURN_IF_ERROR(reader->GetBool(&state.searched_once_));
  FM_RETURN_IF_ERROR(reader->GetBool(&state.have_previous_));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.previous_best_.i));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.previous_best_.ie));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.previous_best_.j));
  FM_RETURN_IF_ERROR(reader->GetI32(&state.previous_best_.je));
  FM_RETURN_IF_ERROR(reader->GetDouble(&state.previous_distance_));

  FM_RETURN_IF_ERROR(reader->GetI64(&state.engine_stats_.points_ingested));
  FM_RETURN_IF_ERROR(reader->GetI64(&state.engine_stats_.searches));
  FM_RETURN_IF_ERROR(reader->GetI64(&state.engine_stats_.seeded_searches));
  FM_RETURN_IF_ERROR(
      reader->GetI64(&state.engine_stats_.ground_distances_computed));
  FM_RETURN_IF_ERROR(
      reader->GetI64(&state.engine_stats_.dfd_cells_computed));
  FM_RETURN_IF_ERROR(reader->GetI64(&state.engine_stats_.bound_rescans));

  // Derived caches: recomputed, not stored — ToSphereVec is a pure
  // function of the point, so the cache is bit-identical to the one the
  // saved instance held.
  if (state.haversine_) {
    for (const Point& p : state.window_) {
      state.vecs_.push_back(ToSphereVec(p));
    }
    for (const Point& p : state.second_window_) {
      state.second_vecs_.push_back(ToSphereVec(p));
    }
  }

  // Ring rebuild: re-append the saved logical cells. The fresh ring's
  // physical heads start at zero, which is invisible through the
  // logical (i, j) API — contents and future eviction behavior are
  // identical.
  Index rows = 0;
  Index cols = 0;
  FM_RETURN_IF_ERROR(reader->GetI32(&rows));
  FM_RETURN_IF_ERROR(reader->GetI32(&cols));
  const Index expect_rows = static_cast<Index>(state.window_.size());
  const Index expect_cols =
      cross ? static_cast<Index>(state.second_window_.size()) : expect_rows;
  if (rows != expect_rows || cols != expect_cols) {
    return Status::DataLoss(
        "window snapshot ring dimensions do not match its points");
  }
  std::vector<double> cells(static_cast<std::size_t>(rows) * cols);
  for (double& cell : cells) FM_RETURN_IF_ERROR(reader->GetDouble(&cell));
  const auto cell_at = [&](Index i, Index j) {
    return cells[static_cast<std::size_t>(i) * cols + j];
  };
  if (!cross) {
    for (Index k = 0; k < rows; ++k) {
      state.ring_.AppendPoint([&](Index j) { return cell_at(k, j); },
                              [&](Index i) { return cell_at(i, k); },
                              cell_at(k, k));
    }
  } else {
    // Columns first (no rows yet, so no cells are written), then each
    // row fills its full extent from the saved matrix.
    for (Index j = 0; j < cols; ++j) {
      state.ring_.AppendCol([&](Index) { return 0.0; });
    }
    for (Index i = 0; i < rows; ++i) {
      state.ring_.AppendRow([&](Index j) { return cell_at(i, j); });
    }
  }

  FM_RETURN_IF_ERROR(state.bounds_.LoadFrom(reader));
  return state;
}

}  // namespace frechet_motif
