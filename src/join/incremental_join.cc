#include "join/incremental_join.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace frechet_motif {

namespace {

JoinPair MakePair(std::size_t a, std::size_t b) {
  return a < b ? JoinPair{a, b} : JoinPair{b, a};
}

bool PairLess(const JoinPair& a, const JoinPair& b) {
  if (a.li != b.li) return a.li < b.li;
  return a.ri < b.ri;
}

}  // namespace

IncrementalDfdJoin::IncrementalDfdJoin(const JoinOptions& options,
                                       const GroundMetric& metric)
    : options_(options), metric_(&metric) {}

StatusOr<IncrementalDfdJoin> IncrementalDfdJoin::Create(
    const JoinOptions& options, const GroundMetric& metric) {
  FM_RETURN_IF_ERROR(ValidateDfdThreshold(options.threshold, "join threshold"));
  return IncrementalDfdJoin(options, metric);
}

Status IncrementalDfdJoin::Update(std::size_t id, Trajectory trajectory) {
  if (trajectory.empty()) {
    return Status::InvalidArgument(
        "incremental join members must be non-empty trajectories");
  }
  const BoundingBox box = BoundingBox::Of(trajectory);

  const double abs_lat =
      std::max(std::abs(box.min_x), std::abs(box.max_x));
  if (!grid_ready_) {
    abs_lat_max_ = abs_lat;
    margin_ = JoinCoordinateMargin(*metric_, options_.threshold, abs_lat_max_);
    // Cell size is a performance knob frozen at first contact with the
    // data; the margin itself stays current (below), which is what
    // soundness depends on.
    StatusOr<GridIndex> grid =
        GridIndex::CreateEmpty(std::max(margin_, 1e-9) * 2.0);
    if (!grid.ok()) return grid.status();
    grid_ = std::move(grid).value();
    grid_ready_ = true;
  } else if (abs_lat > abs_lat_max_) {
    abs_lat_max_ = abs_lat;
    margin_ =
        std::max(margin_, JoinCoordinateMargin(*metric_, options_.threshold,
                                               abs_lat_max_));
  }

  const auto it = members_.find(id);
  if (it == members_.end()) {
    FM_RETURN_IF_ERROR(grid_.Insert(id, box));
    members_.emplace(id, Member{std::move(trajectory), box});
  } else {
    FM_RETURN_IF_ERROR(grid_.Update(id, box));
    it->second = Member{std::move(trajectory), box};
  }
  dirty_.insert(id);
  return Status::Ok();
}

Status IncrementalDfdJoin::Remove(std::size_t id) {
  const auto it = members_.find(id);
  if (it == members_.end()) {
    return Status::NotFound("incremental join member not present");
  }
  FM_RETURN_IF_ERROR(grid_.Remove(id));
  members_.erase(it);
  dirty_.erase(id);
  const auto adj = matches_.find(id);
  if (adj != matches_.end()) {
    for (const std::size_t partner : adj->second) {
      pending_left_.push_back(MakePair(id, partner));
      matches_[partner].erase(id);
      if (matches_[partner].empty()) matches_.erase(partner);
      --matched_count_;
    }
    matches_.erase(id);
  }
  return Status::Ok();
}

StatusOr<JoinDelta> IncrementalDfdJoin::Tick() {
  JoinDelta delta;
  delta.left = std::move(pending_left_);
  pending_left_.clear();
  ++stats_.ticks;

  const std::int64_t matched_before = matched_count_;
  std::int64_t touched_matched = 0;

  std::set<std::pair<std::size_t, std::size_t>> processed;
  for (const std::size_t id : dirty_) {
    const auto member = members_.find(id);
    if (member == members_.end()) continue;  // removed after dirtying

    const std::vector<std::size_t> candidates =
        grid_.Candidates(member->second.box.Expanded(margin_));
    for (const std::size_t partner : candidates) {
      if (partner == id) continue;
      const JoinPair pair = MakePair(id, partner);
      if (!processed.emplace(pair.li, pair.ri).second) continue;
      const Member& other = members_.at(partner);
      ++stats_.pairs_reverified;
      ++stats_.cascade.pairs_total;
      const bool now = ResolveJoinCandidate(
          member->second.trajectory, member->second.box, other.trajectory,
          other.box, *metric_, options_, &stats_.cascade, &scratch_);
      const auto adj = matches_.find(id);
      const bool was =
          adj != matches_.end() && adj->second.count(partner) != 0;
      if (was) ++touched_matched;
      if (now && !was) {
        delta.entered.push_back(pair);
        matches_[id].insert(partner);
        matches_[partner].insert(id);
        ++matched_count_;
      } else if (!now && was) {
        delta.left.push_back(pair);
        matches_[id].erase(partner);
        if (matches_[id].empty()) matches_.erase(id);
        matches_[partner].erase(id);
        if (matches_[partner].empty()) matches_.erase(partner);
        --matched_count_;
      }
    }

    // Previously matching partners no longer in the grid neighborhood:
    // outside the expanded query box every point pair exceeds the
    // coordinate margin, so DFD > ε — evict without a cascade run.
    const auto adj = matches_.find(id);
    if (adj != matches_.end()) {
      const std::vector<std::size_t> partners(adj->second.begin(),
                                              adj->second.end());
      for (const std::size_t partner : partners) {
        const JoinPair pair = MakePair(id, partner);
        if (!processed.emplace(pair.li, pair.ri).second) continue;
        ++touched_matched;
        ++stats_.evicted_by_grid;
        delta.left.push_back(pair);
        matches_[id].erase(partner);
        matches_[partner].erase(id);
        if (matches_[partner].empty()) matches_.erase(partner);
        --matched_count_;
      }
      if (matches_.count(id) != 0 && matches_[id].empty()) {
        matches_.erase(id);
      }
    }
  }
  dirty_.clear();

  stats_.verdicts_carried += matched_before - touched_matched;
  stats_.entered_total += static_cast<std::int64_t>(delta.entered.size());
  stats_.left_total += static_cast<std::int64_t>(delta.left.size());

  std::sort(delta.entered.begin(), delta.entered.end(), PairLess);
  std::sort(delta.left.begin(), delta.left.end(), PairLess);
  return delta;
}

namespace {

void SaveTrajectory(BinaryWriter* writer, const Trajectory& t) {
  writer->PutU64(static_cast<std::uint64_t>(t.size()));
  for (Index i = 0; i < t.size(); ++i) {
    writer->PutDouble(t[i].x);
    writer->PutDouble(t[i].y);
  }
  writer->PutBool(t.has_timestamps());
  if (t.has_timestamps()) {
    for (Index i = 0; i < t.size(); ++i) writer->PutDouble(t.timestamp(i));
  }
}

Status LoadTrajectory(BinaryReader* reader, Trajectory* t) {
  std::uint64_t size = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&size));
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) {
    Point p;
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.x));
    FM_RETURN_IF_ERROR(reader->GetDouble(&p.y));
    points.push_back(p);
  }
  bool timestamped = false;
  FM_RETURN_IF_ERROR(reader->GetBool(&timestamped));
  std::vector<double> times;
  if (timestamped) {
    times.resize(static_cast<std::size_t>(size));
    for (double& ts : times) FM_RETURN_IF_ERROR(reader->GetDouble(&ts));
  }
  *t = Trajectory(std::move(points), std::move(times));
  return Status::Ok();
}

void SaveJoinPairs(BinaryWriter* writer, const std::vector<JoinPair>& pairs) {
  writer->PutU64(pairs.size());
  for (const JoinPair& pair : pairs) {
    writer->PutU64(pair.li);
    writer->PutU64(pair.ri);
  }
}

Status LoadJoinPairs(BinaryReader* reader, std::vector<JoinPair>* pairs) {
  std::uint64_t count = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&count));
  pairs->clear();
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t li = 0;
    std::uint64_t ri = 0;
    FM_RETURN_IF_ERROR(reader->GetU64(&li));
    FM_RETURN_IF_ERROR(reader->GetU64(&ri));
    pairs->push_back(JoinPair{static_cast<std::size_t>(li),
                              static_cast<std::size_t>(ri)});
  }
  return Status::Ok();
}

}  // namespace

void IncrementalDfdJoin::SaveTo(BinaryWriter* writer) const {
  writer->PutBool(grid_ready_);
  writer->PutDouble(margin_);
  writer->PutDouble(abs_lat_max_);
  writer->PutDouble(grid_ready_ ? grid_.cell_size() : 0.0);

  // Members in id order (members_ itself is unordered).
  std::vector<std::size_t> ids;
  ids.reserve(members_.size());
  for (const auto& [id, member] : members_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  writer->PutU64(ids.size());
  for (const std::size_t id : ids) {
    writer->PutU64(id);
    SaveTrajectory(writer, members_.at(id).trajectory);
  }

  // The verdict cache, as its canonical (li < ri, sorted) pair list.
  SaveJoinPairs(writer, CurrentMatches());

  writer->PutU64(dirty_.size());
  for (const std::size_t id : dirty_) writer->PutU64(id);
  SaveJoinPairs(writer, pending_left_);

  writer->PutI64(stats_.ticks);
  writer->PutI64(stats_.pairs_reverified);
  writer->PutI64(stats_.verdicts_carried);
  writer->PutI64(stats_.evicted_by_grid);
  writer->PutI64(stats_.entered_total);
  writer->PutI64(stats_.left_total);
  writer->PutI64(stats_.cascade.pairs_total);
  writer->PutI64(stats_.cascade.pruned_bbox);
  writer->PutI64(stats_.cascade.pruned_endpoints);
  writer->PutI64(stats_.cascade.pruned_hausdorff);
  writer->PutI64(stats_.cascade.decided_exact);
  writer->PutI64(stats_.cascade.matched);
}

Status IncrementalDfdJoin::LoadFrom(BinaryReader* reader) {
  bool grid_ready = false;
  double margin = 0.0;
  double abs_lat_max = 0.0;
  double cell_size = 0.0;
  FM_RETURN_IF_ERROR(reader->GetBool(&grid_ready));
  FM_RETURN_IF_ERROR(reader->GetDouble(&margin));
  FM_RETURN_IF_ERROR(reader->GetDouble(&abs_lat_max));
  FM_RETURN_IF_ERROR(reader->GetDouble(&cell_size));

  members_.clear();
  dirty_.clear();
  pending_left_.clear();
  matches_.clear();
  matched_count_ = 0;
  grid_ready_ = grid_ready;
  margin_ = margin;
  abs_lat_max_ = abs_lat_max;
  if (grid_ready) {
    StatusOr<GridIndex> grid = GridIndex::CreateEmpty(cell_size);
    if (!grid.ok()) {
      return Status::DataLoss("join snapshot holds an invalid cell size: " +
                              grid.status().ToString());
    }
    grid_ = std::move(grid).value();
  } else {
    grid_ = GridIndex();
  }

  std::uint64_t member_count = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&member_count));
  for (std::uint64_t k = 0; k < member_count; ++k) {
    std::uint64_t id = 0;
    FM_RETURN_IF_ERROR(reader->GetU64(&id));
    Trajectory trajectory;
    FM_RETURN_IF_ERROR(LoadTrajectory(reader, &trajectory));
    if (trajectory.empty() || !grid_ready) {
      return Status::DataLoss("join snapshot member set is inconsistent");
    }
    const BoundingBox box = BoundingBox::Of(trajectory);
    FM_RETURN_IF_ERROR(grid_.Insert(static_cast<std::size_t>(id), box));
    members_.emplace(static_cast<std::size_t>(id),
                     Member{std::move(trajectory), box});
  }

  std::vector<JoinPair> match_pairs;
  FM_RETURN_IF_ERROR(LoadJoinPairs(reader, &match_pairs));
  for (const JoinPair& pair : match_pairs) {
    if (members_.count(pair.li) == 0 || members_.count(pair.ri) == 0) {
      return Status::DataLoss("join snapshot match references a non-member");
    }
    matches_[pair.li].insert(pair.ri);
    matches_[pair.ri].insert(pair.li);
    ++matched_count_;
  }

  std::uint64_t dirty_count = 0;
  FM_RETURN_IF_ERROR(reader->GetU64(&dirty_count));
  for (std::uint64_t k = 0; k < dirty_count; ++k) {
    std::uint64_t id = 0;
    FM_RETURN_IF_ERROR(reader->GetU64(&id));
    dirty_.insert(static_cast<std::size_t>(id));
  }
  FM_RETURN_IF_ERROR(LoadJoinPairs(reader, &pending_left_));

  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.ticks));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.pairs_reverified));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.verdicts_carried));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.evicted_by_grid));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.entered_total));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.left_total));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.pairs_total));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.pruned_bbox));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.pruned_endpoints));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.pruned_hausdorff));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.decided_exact));
  FM_RETURN_IF_ERROR(reader->GetI64(&stats_.cascade.matched));
  return Status::Ok();
}

std::vector<JoinPair> IncrementalDfdJoin::CurrentMatches() const {
  std::vector<JoinPair> out;
  for (const auto& [id, partners] : matches_) {
    for (const std::size_t partner : partners) {
      if (id < partner) out.push_back(JoinPair{id, partner});
    }
  }
  std::sort(out.begin(), out.end(), PairLess);
  return out;
}

}  // namespace frechet_motif
