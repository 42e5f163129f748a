#include "stream/incremental_bounds.h"

#include <algorithm>
#include <limits>

namespace frechet_motif {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Minimum (value, achiever) of matrix line `line` over the opposing
/// axis's logical indices [lo, hi] — column `line` over rows when
/// kColumn, row `line` over columns otherwise; (inf, -1) when the range
/// is empty.
template <bool kColumn>
void LineMin(const RingDistanceMatrix& dg, Index line, Index lo, Index hi,
             double* value, Index* arg) {
  *value = kInf;
  *arg = -1;
  for (Index k = lo; k <= hi; ++k) {
    const double d = kColumn ? dg.Distance(k, line) : dg.Distance(line, k);
    if (d < *value) {
      *value = d;
      *arg = k;
    }
  }
}

/// Carries the whole-line minima across one slide, in place: entry e is
/// the minimum of line e+1 over the whole opposing axis (RminFull over
/// columns when kColumn, CminFull over rows otherwise). The line axis
/// slid by `line_shift` (did the entry's line survive?) and the opposing
/// axis by `span_shift` (did its achiever survive?). A surviving entry
/// keeps its old minimum while the achiever survived, else rescans the
/// surviving span, then takes the fresh span into account (a tie keeps
/// the old achiever); a fresh line is scanned whole. With `line_shift`
/// equal to the line count every line is fresh: the cold build.
template <bool kColumn>
void UpdateLineMinima(const RingDistanceMatrix& dg, Index line_shift,
                      Index span_shift, std::vector<double>* values,
                      std::vector<Index>* args, std::int64_t* rescans) {
  const Index lines = kColumn ? dg.cols() : dg.rows();
  const Index span = kColumn ? dg.rows() : dg.cols();
  const Index fresh_line = lines - line_shift;  // first fresh line
  const Index fresh_span = span - span_shift;   // first fresh cross index
  // Ascending e reads old entry e + line_shift >= e before overwriting it.
  for (Index e = 0; e + 1 < lines; ++e) {
    double old_part = kInf;
    Index old_arg = -1;
    Index fresh_lo = 0;
    if (e + 1 < fresh_line) {
      const Index old = e + line_shift;
      fresh_lo = fresh_span;
      if ((*args)[old] >= span_shift) {
        old_part = (*values)[old];
        old_arg = (*args)[old] - span_shift;
      } else {
        ++*rescans;
        LineMin<kColumn>(dg, e + 1, 0, fresh_span - 1, &old_part, &old_arg);
      }
    }
    double fresh_part = kInf;
    Index fresh_arg = -1;
    LineMin<kColumn>(dg, e + 1, fresh_lo, span - 1, &fresh_part, &fresh_arg);
    const bool fresh_wins = fresh_part < old_part;
    (*values)[e] = fresh_wins ? fresh_part : old_part;
    (*args)[e] = fresh_wins ? fresh_arg : old_arg;
  }
}

}  // namespace

void IncrementalRelaxedBounds::Update(const RingDistanceMatrix& dg, bool cross,
                                      Index shift_row, Index shift_col) {
  const Index rows = dg.rows();
  const Index cols = dg.cols();
  if (cross != cross_ || rows != rows_ || cols != cols_ ||
      shift_row >= rows || shift_col >= cols) {
    // Cold build: nothing carries, so every line is fresh.
    cross_ = cross;
    rows_ = rows;
    cols_ = cols;
    shift_row = rows;
    shift_col = cols;
    rmin_full_.assign(cols, kInf);
    rmin_full_arg_.assign(cols, -1);
    cmin_full_.assign(rows, kInf);
    cmin_full_arg_.assign(rows, -1);
    // Build's cross variant leaves every index range unrestricted, so
    // only the single variant keeps the restricted arrays.
    const Index restricted = cross ? 0 : rows;
    rmin_.assign(restricted, kInf);
    rmin_arg_.assign(restricted, -1);
    cmin_.assign(restricted, kInf);
    cmin_start_.assign(restricted, kInf);
  }
  UpdateLineMinima<true>(dg, shift_col, shift_row, &rmin_full_,
                         &rmin_full_arg_, &rescans_);
  UpdateLineMinima<false>(dg, shift_row, shift_col, &cmin_full_,
                          &cmin_full_arg_, &rescans_);
  if (cross) return;

  // Single variant: one shift, one square window, in place as above.
  const Index w = rows;
  const Index shift = shift_row;
  const Index fresh = w - shift;  // first fresh index (0 on a cold build)
  // Rmin[j]: column j+1 over rows [0, j-1], a prefix of the surviving
  // rows — the old value carries iff its achiever did.
  for (Index j = 0; j + 1 < w; ++j) {
    const bool survived = j + 1 < fresh;
    if (survived && rmin_arg_[j + shift] >= shift) {
      rmin_[j] = rmin_[j + shift];
      rmin_arg_[j] = rmin_arg_[j + shift] - shift;
    } else {
      if (survived) ++rescans_;
      LineMin<true>(dg, j + 1, 0, j - 1, &rmin_[j], &rmin_arg_[j]);
    }
  }
  // Cmin[i] / CminStart[i]: row i+1 over columns [i+1, w-1] / [i+3, w-1].
  // A surviving row's old suffix maps exactly onto the surviving part of
  // the new range, so only the fresh columns are read.
  for (Index i = 0; i + 1 < w; ++i) {
    const bool survived = i + 1 < fresh;
    const Index from = survived ? fresh : 0;
    double value = kInf;
    Index unused = -1;
    LineMin<false>(dg, i + 1, std::max(from, i + 1), w - 1, &value, &unused);
    cmin_[i] = survived ? std::min(cmin_[i + shift], value) : value;
    LineMin<false>(dg, i + 1, std::max(from, i + 3), w - 1, &value, &unused);
    cmin_start_[i] = survived ? std::min(cmin_start_[i + shift], value) : value;
  }
}

RelaxedBounds IncrementalRelaxedBounds::Snapshot(Index min_length_xi) const {
  if (cross_) {
    // Build's cross variant leaves every index range unrestricted, so the
    // restricted slots are copies of the full arrays.
    return RelaxedBounds::FromComponents(rmin_full_, cmin_full_, cmin_full_,
                                         rmin_full_, cmin_full_,
                                         min_length_xi);
  }
  return RelaxedBounds::FromComponents(rmin_, cmin_, cmin_start_, rmin_full_,
                                       cmin_full_, min_length_xi);
}

void IncrementalRelaxedBounds::SaveTo(BinaryWriter* writer) const {
  writer->PutBool(cross_);
  writer->PutI32(rows_);
  writer->PutI32(cols_);
  writer->PutI64(rescans_);
  writer->PutDoubleVector(rmin_);
  writer->PutDoubleVector(rmin_full_);
  writer->PutDoubleVector(cmin_);
  writer->PutDoubleVector(cmin_start_);
  writer->PutDoubleVector(cmin_full_);
  writer->PutI32Vector(rmin_arg_);
  writer->PutI32Vector(rmin_full_arg_);
  writer->PutI32Vector(cmin_full_arg_);
}

Status IncrementalRelaxedBounds::LoadFrom(BinaryReader* reader) {
  FM_RETURN_IF_ERROR(reader->GetBool(&cross_));
  FM_RETURN_IF_ERROR(reader->GetI32(&rows_));
  FM_RETURN_IF_ERROR(reader->GetI32(&cols_));
  FM_RETURN_IF_ERROR(reader->GetI64(&rescans_));
  FM_RETURN_IF_ERROR(reader->GetDoubleVector(&rmin_));
  FM_RETURN_IF_ERROR(reader->GetDoubleVector(&rmin_full_));
  FM_RETURN_IF_ERROR(reader->GetDoubleVector(&cmin_));
  FM_RETURN_IF_ERROR(reader->GetDoubleVector(&cmin_start_));
  FM_RETURN_IF_ERROR(reader->GetDoubleVector(&cmin_full_));
  FM_RETURN_IF_ERROR(reader->GetI32Vector(&rmin_arg_));
  FM_RETURN_IF_ERROR(reader->GetI32Vector(&rmin_full_arg_));
  FM_RETURN_IF_ERROR(reader->GetI32Vector(&cmin_full_arg_));
  if (rows_ < 0 || cols_ < 0) {
    return Status::DataLoss("incremental-bounds snapshot has negative sizes");
  }
  const std::size_t rows = static_cast<std::size_t>(rows_);
  const std::size_t cols = static_cast<std::size_t>(cols_);
  const bool sizes_ok =
      cross_ ? (rmin_.empty() && cmin_.empty() && cmin_start_.empty() &&
                rmin_arg_.empty() && rmin_full_.size() == cols &&
                rmin_full_arg_.size() == cols && cmin_full_.size() == rows &&
                cmin_full_arg_.size() == rows)
             : (rows == cols && rmin_.size() == rows &&
                rmin_full_.size() == rows && cmin_.size() == rows &&
                cmin_start_.size() == rows && cmin_full_.size() == rows &&
                rmin_arg_.size() == rows && rmin_full_arg_.size() == rows &&
                cmin_full_arg_.size() == rows);
  if (!sizes_ok) {
    return Status::DataLoss(
        "incremental-bounds snapshot has inconsistent array sizes");
  }
  return Status::Ok();
}

}  // namespace frechet_motif
