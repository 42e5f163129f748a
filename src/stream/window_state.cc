#include "stream/window_state.h"

#include <algorithm>
#include <utility>

#include "motif/subset_search.h"
#include "util/timer.h"

namespace frechet_motif {

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
  FM_RETURN_IF_ERROR(
      ValidateApproximationEpsilon(options.approximation_epsilon));
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
  Side& own = sides_[side];
  if (own.points.empty()) {
    own.timestamped = timestamp != nullptr;
  } else if (own.timestamped != (timestamp != nullptr)) {
    return Status::InvalidArgument(
        "cannot mix timestamped and bare pushes on one stream");
  }

  // The ring evicts the matching row/column itself inside
  // AppendRow/AppendCol/AppendPoint; only the point-side caches are
  // advanced here.
  if (static_cast<Index>(own.points.size()) == options_.window_length) {
    own.points.pop_front();
    if (haversine_) own.vecs.pop_front();
    if (own.timestamped) own.times.pop_front();
  }

  // Fresh ground distances against the points the new one pairs with
  // (the other side of a cross pair, the window itself otherwise),
  // computed exactly as DistanceMatrix::Build computes them (cached
  // sphere vectors for haversine, metric calls otherwise) so ring cells
  // are bit-identical to a fresh matrix. Haversine stages the paired
  // vectors contiguously and computes every cell with one
  // SphereVecDistanceBatch call; SphereVecDistanceMeters is exactly
  // symmetric (the chord terms are squared), so one buffer serves both
  // the new row and the new column of the self-matrix. Any other metric
  // fills new->k and k->new separately, so an asymmetric one stays
  // exact.
  const Side& paired = sides_[cross_ ? 1 - side : 0];
  const std::size_t count = paired.points.size();
  batch_dists_.resize(2 * count);
  double* new_to_k = batch_dists_.data();
  double* k_to_new = new_to_k;
  double self_distance = 0.0;
  SphereVec pv;
  if (haversine_) {
    pv = ToSphereVec(p);
    batch_vecs_.assign(paired.vecs.begin(), paired.vecs.end());
    SphereVecDistanceBatch(pv, batch_vecs_.data(), count, new_to_k);
    if (!cross_) self_distance = SphereVecDistanceMeters(pv, pv);
  } else {
    k_to_new = new_to_k + count;
    const bool row = !cross_ || side == 0;  // the new point is a row point
    const bool col = !cross_ || side == 1;  // ... and/or a column point
    for (std::size_t k = 0; k < count; ++k) {
      if (row) new_to_k[k] = metric_->Distance(p, paired.points[k]);
      if (col) k_to_new[k] = metric_->Distance(paired.points[k], p);
    }
    if (!cross_) self_distance = metric_->Distance(p, p);
  }
  if (!cross_) {
    ring_.AppendPoint(new_to_k, k_to_new, self_distance);
  } else if (side == 0) {
    ring_.AppendRow(new_to_k);
  } else {
    ring_.AppendCol(k_to_new);
  }
  engine_stats_.ground_distances_computed +=
      static_cast<std::int64_t>(cross_ ? count : 2 * count + 1);

  own.points.push_back(p);
  if (haversine_) own.vecs.push_back(pv);
  if (own.timestamped) own.times.push_back(*timestamp);
  ++own.pushed;
  ++own.appended_since_search;
  ++engine_stats_.points_ingested;
  return Status::Ok();
}

bool WindowState::SearchDue() const {
  for (int side = 0; side < (cross_ ? 2 : 1); ++side) {
    if (window_size(side) != options_.window_length) return false;
  }
  return !searched_once_ || appended_since_search() >= options_.slide_step;
}

StatusOr<StreamUpdate> WindowState::RunSearch(ThreadPool* pool) {
  const Index n = window_size(0);
  const Index m = cross_ ? window_size(1) : n;
  const MotifOptions motif = SearchMotifOptions();
  // The slide since the last search, per axis: the ring's rows are side
  // 0, its columns side 1 (a single window slides both axes together).
  const Index shift_row = sides_[0].appended_since_search;
  const Index shift_col =
      cross_ ? sides_[1].appended_since_search : shift_row;

  StreamUpdate update;
  update.window_start = sides_[0].pushed - n;
  update.window_start_second = cross_ ? sides_[1].pushed - m : 0;
  update.window_points = n;
  update.approximation_epsilon = options_.approximation_epsilon;

  Timer timer;

  // Bounds: maintained incrementally (IncrementalRelaxedBounds carries
  // each minimum across the slide unless its achiever was evicted, and
  // builds cold on the first search). No ground distance is recomputed
  // and no per-slide Build is paid; the snapshot is bit-identical to a
  // fresh Build over the same ring.
  bounds_.Update(ring_, cross_, shift_row, shift_col);
  const RelaxedBounds rb = bounds_.Snapshot(motif.min_length_xi);
  engine_stats_.bound_rescans = bounds_.rescans();

  // Threshold carry: sound iff the previous best pair is still inside the
  // window after the slide (its distance is then achievable, so pruning
  // against it can never discard the optimum — see the proof in
  // window_state.h).
  if (searched_once_ && have_previous_ && previous_best_.i >= shift_row &&
      previous_best_.j >= shift_col) {
    update.seeded = true;
    update.seed_threshold = previous_distance_;
  }

  // The relaxed bounding search of BtmMotif (Algorithm 2 with the
  // Section 4.3 bounds), built and drained through the same subset-search
  // pipeline, so the result is bit-identical to the from-scratch baseline
  // — the only differences are the seeded initial threshold and the
  // dirty-frontier filter below.
  std::vector<SubsetEntry> entries =
      BuildSubsetQueue(motif, n, m, pool, [&](Index i, Index j) {
        return rb.SubsetLb(ring_, i, j);
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
  RunSubsetQueue(ring_, motif, &entries, &rb, /*sort_entries=*/true, &state,
                 &update.stats, /*caps=*/nullptr, lb_scale, pool);
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
  shifted.j -= shift_col;
  shifted.je -= shift_col;
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
    update.motif = state.result();
  }

  previous_best_ = update.motif.best;
  previous_distance_ = update.motif.distance;
  have_previous_ = update.motif.found;
  searched_once_ = true;
  sides_[0].appended_since_search = 0;
  sides_[1].appended_since_search = 0;

  ++engine_stats_.searches;
  if (update.seeded) ++engine_stats_.seeded_searches;
  engine_stats_.dfd_cells_computed += update.stats.dfd_cells_computed;
  return update;
}

Trajectory WindowState::WindowTrajectory(int side) const {
  const Side& own = sides_[side];
  std::vector<Point> points(own.points.begin(), own.points.end());
  if (!own.timestamped) return Trajectory(std::move(points));
  return Trajectory(std::move(points),
                    std::vector<double>(own.times.begin(), own.times.end()));
}

RelaxedBounds WindowState::CurrentBounds() const {
  return bounds_.Snapshot(options_.min_length_xi);
}

void WindowState::SaveSide(BinaryWriter* writer, int side) const {
  const Side& own = sides_[side];
  writer->PutU64(own.points.size());
  writer->PutBool(own.timestamped);
  for (std::size_t k = 0; k < own.points.size(); ++k) {
    writer->PutDouble(own.points[k].x);
    writer->PutDouble(own.points[k].y);
    if (own.timestamped) writer->PutDouble(own.times[k]);
  }
}

Status WindowState::ReplaySide(BinaryReader* reader, int side) {
  std::uint64_t size = 0;
  bool timestamped = false;
  FM_RETURN_IF_ERROR(reader->GetU64(&size));
  FM_RETURN_IF_ERROR(reader->GetBool(&timestamped));
  if (side == 1 && !cross_ && size != 0) {
    return Status::DataLoss(
        "single-stream window snapshot has a second side");
  }
  if (size > static_cast<std::uint64_t>(options_.window_length)) {
    return Status::DataLoss("window snapshot exceeds the window capacity");
  }
  for (std::uint64_t k = 0; k < size; ++k) {
    Point p;
    double t = 0.0;
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.y));
    if (timestamped) FM_RETURN_IF_ERROR(reader->GetDouble(&t));
    const double* ts = timestamped ? &t : nullptr;
    const Status valid = ValidateArrival(*metric_, p, ts);
    if (!valid.ok()) {
      return Status::DataLoss("window snapshot holds an invalid point: " +
                              valid.message());
    }
    FM_RETURN_IF_ERROR(Append(side, p, ts));
  }
  return Status::Ok();
}

void WindowState::SaveTo(BinaryWriter* writer) const {
  // Inputs only: the window points (the ring and the sphere-vector
  // caches are pure functions of them), side 1 first — the order
  // RestoreFrom replays them in.
  SaveSide(writer, 1);
  SaveSide(writer, 0);

  writer->PutI64(sides_[0].pushed);
  writer->PutI64(sides_[1].pushed);
  writer->PutI32(sides_[0].appended_since_search);
  writer->PutI32(sides_[1].appended_since_search);
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

  bounds_.SaveTo(writer);
}

StatusOr<WindowState> WindowState::RestoreFrom(BinaryReader* reader,
                                               const StreamOptions& options,
                                               bool cross,
                                               const GroundMetric& metric) {
  StatusOr<WindowState> created = Create(options, metric, cross);
  if (!created.ok()) return created.status();
  WindowState state = std::move(created).value();

  // Rebuild the ring, the sphere-vector caches and the point/time
  // deques through the ingest path itself. Each cell is a pure function
  // of its two points (and SphereVecDistanceMeters is exactly
  // symmetric), so the replay order does not change a bit; side 1 first
  // means the cross pair's columns are appended while no rows exist, and
  // each row then fills its full extent.
  FM_RETURN_IF_ERROR(state.ReplaySide(reader, 1));
  FM_RETURN_IF_ERROR(state.ReplaySide(reader, 0));

  // The replay advanced the counters and slide accounting; overwrite
  // them with the saved values.
  FM_RETURN_IF_ERROR(reader->GetI64(&state.sides_[0].pushed));
  FM_RETURN_IF_ERROR(reader->GetI64(&state.sides_[1].pushed));
  FM_RETURN_IF_ERROR(
      reader->GetI32(&state.sides_[0].appended_since_search));
  FM_RETURN_IF_ERROR(
      reader->GetI32(&state.sides_[1].appended_since_search));
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

  FM_RETURN_IF_ERROR(state.bounds_.LoadFrom(reader));
  return state;
}

}  // namespace frechet_motif
