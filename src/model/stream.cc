#include "model/stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace lahar {
namespace {

// CheckProbability's bound, written so NaN fails too: it fails every
// comparison.
bool InProbabilityRange(double p) { return p >= -1e-9 && p <= 1 + 1e-9; }

// Entries and sum of the first `n` entries of `p`, as a stored distribution.
// The loop only accumulates the range test; the Status naming the bad
// entry is built after it, off the path every valid update takes.
Status CheckDistribution(const double* p, size_t n) {
  double total = 0;
  bool in_range = true;
  for (size_t i = 0; i < n; ++i) {
    in_range &= InProbabilityRange(p[i]);
    total += p[i];
  }
  for (size_t i = 0; !in_range && i < n; ++i) {
    LAHAR_RETURN_NOT_OK(CheckProbability(p[i]));
  }
  if (std::fabs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument("distribution sums to " +
                                   std::to_string(total));
  }
  return Status::OK();
}

const std::vector<double> kEmptyDist;

}  // namespace

Status CheckProbability(double p) {
  if (!InProbabilityRange(p)) {
    return Status::InvalidArgument("probability " + std::to_string(p) +
                                   " is not within [0,1]");
  }
  return Status::OK();
}

Stream::Stream(SymbolId type, ValueTuple key, size_t num_value_attrs,
               Timestamp horizon, bool markovian)
    : type_(type),
      key_(std::move(key)),
      num_value_attrs_(num_value_attrs),
      horizon_(horizon),
      markovian_(markovian) {
  domain_.push_back(ValueTuple{});  // index 0 = bottom
  marginals_.resize(horizon_ + 1);
  if (markovian_) {
    cpts_.resize(horizon_);  // cpts_[1..horizon-1]
    cpt_bytes_ = cpts_.size() * sizeof(CptSlice);
  }
}

void Stream::StoreCpt(Timestamp t, CptSlice slice) {
  if (t == cpts_.size()) {
    cpts_.emplace_back();
    cpt_bytes_ += sizeof(CptSlice);
  }
  cpt_entries_ += slice.nonzeros() - cpts_[t].nonzeros();
  cpt_bytes_ += slice.bytes() - cpts_[t].bytes();
  cpts_[t] = std::move(slice);
}

DomainIndex Stream::InternTuple(const ValueTuple& values) {
  assert(values.size() == num_value_attrs_);
  auto it = domain_index_.find(values);
  if (it != domain_index_.end()) return it->second;
  DomainIndex d = static_cast<DomainIndex>(domain_.size());
  domain_.push_back(values);
  domain_index_.emplace(values, d);
  return d;
}

DomainIndex Stream::LookupTuple(const ValueTuple& values) const {
  auto it = domain_index_.find(values);
  return it == domain_index_.end() ? kNotFound : it->second;
}

Status Stream::SetMarginal(Timestamp t, std::vector<double> dist) {
  if (t < 1 || t > horizon_) return Status::OutOfRange("timestep out of range");
  LAHAR_RETURN_NOT_OK(CheckMarginal(dist));
  dist.resize(domain_.size(), 0.0);
  marginals_[t] = std::move(dist);
  return Status::OK();
}

Status Stream::SetInitial(std::vector<double> dist) {
  if (!markovian_) {
    return Status::InvalidArgument("SetInitial requires a Markovian stream");
  }
  return SetMarginal(1, std::move(dist));
}

Status Stream::CheckMarginal(const std::vector<double>& dist) const {
  return CheckDistribution(dist.data(),
                           std::min(dist.size(), domain_.size()));
}

Status Stream::CheckCpt(const Matrix& cpt) const {
  if (cpt.rows() != domain_.size() || cpt.cols() != domain_.size()) {
    return Status::InvalidArgument(
        "CPT must be D x D over the stream domain; intern all tuples first");
  }
  for (size_t r = 0; r < cpt.rows(); ++r) {
    const Status st = CheckDistribution(cpt.Row(r), cpt.cols());
    if (!st.ok()) {
      return Status::InvalidArgument("CPT row " + std::to_string(r) + ": " +
                                     st.message());
    }
  }
  return Status::OK();
}

Status Stream::SetCpt(Timestamp t, const Matrix& cpt) {
  if (!markovian_) {
    return Status::InvalidArgument("SetCpt requires a Markovian stream");
  }
  if (t < 1 || t >= horizon_) return Status::OutOfRange("CPT timestep");
  LAHAR_RETURN_NOT_OK(CheckCpt(cpt));
  StoreCpt(t, CptSlice(cpt));
  return Status::OK();
}

Status Stream::FinalizeMarkov() {
  if (!markovian_) {
    return Status::InvalidArgument("FinalizeMarkov requires Markovian stream");
  }
  if (marginals_[1].empty()) return Status::InvalidArgument("missing initial");
  for (Timestamp t = 1; t < horizon_; ++t) {
    if (cpts_[t].rows() == 0) {
      return Status::InvalidArgument("missing CPT at t=" + std::to_string(t));
    }
    cpts_[t].view().LeftMultiplyInto(marginals_[t], &marginals_[t + 1]);
  }
  return Status::OK();
}

Status Stream::PruneCpts(double epsilon, size_t* entries_before,
                         size_t* entries_after) {
  if (!markovian_) {
    return Status::InvalidArgument("PruneCpts requires a Markovian stream");
  }
  size_t before = 0, after = 0;
  for (Timestamp t = 1; t < horizon_; ++t) {
    // Pruning is offline: expand the slice, prune it dense, re-sparsify.
    Matrix cpt = cpts_[t].view().ToDense();
    for (size_t r = 0; r < cpt.rows(); ++r) {
      double kept = 0;
      size_t kept_count = 0;
      DomainIndex argmax = 0;
      for (size_t c = 0; c < cpt.cols(); ++c) {
        double p = cpt.At(r, c);
        before += p > 0;
        if (p > cpt.At(r, argmax)) argmax = static_cast<DomainIndex>(c);
        if (p < epsilon) {
          cpt.At(r, c) = 0.0;
        } else {
          kept += p;
          if (p > 0) ++kept_count;
        }
      }
      if (kept <= 0) {
        // Everything pruned: keep the row's mode so the row stays stochastic.
        cpt.At(r, argmax) = 1.0;
        kept_count = 1;
      } else {
        for (size_t c = 0; c < cpt.cols(); ++c) cpt.At(r, c) /= kept;
      }
      after += kept_count;
    }
    StoreCpt(t, CptSlice(cpt));
  }
  if (entries_before != nullptr) *entries_before = before;
  if (entries_after != nullptr) *entries_after = after;
  return FinalizeMarkov();
}

Status Stream::AppendMarginal(std::vector<double> dist) {
  if (markovian_) {
    return Status::InvalidArgument(
        "AppendMarginal requires an independent stream; use AppendMarkovStep");
  }
  LAHAR_RETURN_NOT_OK(CheckMarginal(dist));
  dist.resize(domain_.size(), 0.0);
  marginals_.push_back(std::move(dist));
  ++horizon_;
  return Status::OK();
}

Status Stream::AppendInitial(std::vector<double> dist) {
  if (!markovian_) {
    return Status::InvalidArgument(
        "AppendInitial requires a Markovian stream; use AppendMarginal");
  }
  if (horizon_ != 0) {
    return Status::InvalidArgument(
        "AppendInitial requires an empty stream (horizon 0)");
  }
  LAHAR_RETURN_NOT_OK(CheckMarginal(dist));
  dist.resize(domain_.size(), 0.0);
  marginals_.push_back(std::move(dist));
  StoreCpt(0, CptSlice());  // placeholder; CPTs live at 1..horizon-1
  horizon_ = 1;
  return Status::OK();
}

Status Stream::AppendMarkovStep(const Matrix& cpt) {
  if (!markovian_) {
    return Status::InvalidArgument(
        "AppendMarkovStep requires a Markovian stream");
  }
  if (horizon_ < 1 || marginals_[horizon_].empty()) {
    return Status::InvalidArgument(
        "set the initial marginal (and finalize) before appending");
  }
  LAHAR_RETURN_NOT_OK(CheckCpt(cpt));
  StoreCpt(horizon_, CptSlice(cpt));
  marginals_.emplace_back();
  cpts_[horizon_].view().LeftMultiplyInto(marginals_[horizon_],
                                          &marginals_[horizon_ + 1]);
  ++horizon_;
  return Status::OK();
}

const std::vector<double>& Stream::MarginalAt(Timestamp t) const {
  if (t < 1 || t > horizon_) return kEmptyDist;
  return marginals_[t];
}

CptView Stream::CptAt(Timestamp t) const {
  assert(markovian_ && t >= 1 && t < horizon_);
  return cpts_[t].view();
}

const std::array<uint64_t, 2>& Stream::CptDigestAt(Timestamp t) const {
  assert(markovian_ && t >= 1 && t < horizon_);
  return cpts_[t].digest();
}

double Stream::ProbAt(Timestamp t, DomainIndex d) const {
  const auto& m = MarginalAt(t);
  return d < m.size() ? m[d] : 0.0;
}

ProbabilisticEvent Stream::EventAt(Timestamp t) const {
  ProbabilisticEvent e;
  e.t = t;
  const auto& m = MarginalAt(t);
  e.bottom_p = m.empty() ? 1.0 : m[kBottom];
  for (DomainIndex d = 1; d < m.size(); ++d) {
    if (m[d] > 0) e.outcomes.push_back({domain_[d], m[d]});
  }
  return e;
}

std::vector<DomainIndex> Stream::SampleTrajectory(Rng* rng) const {
  std::vector<DomainIndex> traj(horizon_ + 1, kBottom);
  if (horizon_ == 0) return traj;
  if (!markovian_) {
    for (Timestamp t = 1; t <= horizon_; ++t) {
      const auto& m = MarginalAt(t);
      if (m.empty()) continue;  // unset timestep: certain bottom
      size_t d = rng->Categorical(m);
      traj[t] = d >= m.size() ? kBottom : static_cast<DomainIndex>(d);
    }
    return traj;
  }
  const auto& init = MarginalAt(1);
  size_t d0 = rng->Categorical(init);
  traj[1] = d0 >= init.size() ? kBottom : static_cast<DomainIndex>(d0);
  for (Timestamp t = 1; t < horizon_; ++t) {
    const CptView cpt = cpts_[t].view();
    const CptRow row = cpt.Row(traj[t]);
    const size_t d =
        rng->Categorical(row.cols(), row.probs(), row.size(), cpt.cols());
    traj[t + 1] = d >= cpt.cols() ? kBottom : static_cast<DomainIndex>(d);
  }
  return traj;
}

double Stream::TrajectoryProb(const std::vector<DomainIndex>& traj) const {
  assert(traj.size() == static_cast<size_t>(horizon_) + 1);
  if (horizon_ == 0) return 1.0;
  double p = ProbAt(1, traj[1]);
  for (Timestamp t = 1; t < horizon_ && p > 0; ++t) {
    if (markovian_) {
      p *= cpts_[t].view().At(traj[t], traj[t + 1]);
    } else {
      p *= ProbAt(t + 1, traj[t + 1]);
    }
  }
  return p;
}

void WriteValueTuple(const ValueTuple& t, serial::Writer* w) {
  w->U64(t.size());
  for (const Value& v : t) {
    w->U8(static_cast<uint8_t>(v.kind()));
    w->U64(v.is_symbol() ? static_cast<uint64_t>(v.symbol())
                         : static_cast<uint64_t>(v.is_int() ? v.int_value()
                                                            : 0));
  }
}

Status ReadValueTuple(serial::Reader* r, ValueTuple* out) {
  uint64_t n;
  LAHAR_RETURN_NOT_OK(r->U64(&n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t kind;
    uint64_t payload;
    LAHAR_RETURN_NOT_OK(r->U8(&kind));
    LAHAR_RETURN_NOT_OK(r->U64(&payload));
    switch (static_cast<Value::Kind>(kind)) {
      case Value::Kind::kNull:
        out->push_back(Value());
        break;
      case Value::Kind::kSymbol:
        out->push_back(Value::Symbol(static_cast<SymbolId>(payload)));
        break;
      case Value::Kind::kInt:
        out->push_back(Value::Int(static_cast<int64_t>(payload)));
        break;
      default:
        return Status::InvalidArgument("unknown value kind in snapshot");
    }
  }
  return Status::OK();
}

void Stream::SaveTo(serial::Writer* w) const {
  w->U32(type_);
  WriteValueTuple(key_, w);
  w->U64(num_value_attrs_);
  w->U32(horizon_);
  w->U8(markovian_ ? 1 : 0);
  // Domain, skipping the implicit bottom at index 0.
  w->U64(domain_.size() - 1);
  for (size_t d = 1; d < domain_.size(); ++d) WriteValueTuple(domain_[d], w);
  // Marginals for t = 1..horizon. Empty vectors (unset certain-bottom
  // timesteps) and short vectors (recorded before domain growth) are kept
  // as-is, hence the per-timestep presence flag plus exact length.
  for (Timestamp t = 1; t <= horizon_; ++t) {
    const auto& m = marginals_[t];
    w->U8(m.empty() ? 0 : 1);
    if (!m.empty()) w->DoubleVec(m);
  }
  // CPT vector, field-exact: append-built Markovian streams store
  // cpts_.size() == horizon_, Set-built ones horizon_ at declaration time,
  // independent streams 0.
  w->U64(cpts_.size());
  for (const CptSlice& slice : cpts_) {
    const CptView cpt = slice.view();
    w->U64(cpt.rows());
    w->U64(cpt.cols());
    for (size_t r = 0; r < cpt.rows(); ++r) {
      size_t c = 0;
      for (const CptEntry e : cpt.Row(r)) {
        for (; c < e.col; ++c) w->F64(0.0);
        w->F64(e.p);
        ++c;
      }
      for (; c < cpt.cols(); ++c) w->F64(0.0);
    }
  }
}

Result<Stream> Stream::LoadFrom(serial::Reader* r) {
  uint32_t type, horizon;
  ValueTuple key;
  uint64_t num_value_attrs, domain_count;
  uint8_t markovian;
  LAHAR_RETURN_NOT_OK(r->U32(&type));
  LAHAR_RETURN_NOT_OK(ReadValueTuple(r, &key));
  LAHAR_RETURN_NOT_OK(r->U64(&num_value_attrs));
  LAHAR_RETURN_NOT_OK(r->U32(&horizon));
  LAHAR_RETURN_NOT_OK(r->U8(&markovian));
  LAHAR_RETURN_NOT_OK(r->U64(&domain_count));
  // Every timestep takes at least its presence byte, so a horizon past
  // the remaining bytes is corrupt; refuse it before allocating for it.
  if (horizon > r->remaining()) {
    return Status::InvalidArgument("stream horizon exceeds snapshot size");
  }
  Stream s(type, std::move(key), num_value_attrs, horizon, markovian != 0);
  for (uint64_t d = 0; d < domain_count; ++d) {
    ValueTuple tuple;
    LAHAR_RETURN_NOT_OK(ReadValueTuple(r, &tuple));
    if (tuple.size() != num_value_attrs) {
      return Status::InvalidArgument("domain tuple arity mismatch in snapshot");
    }
    s.InternTuple(tuple);
  }
  for (Timestamp t = 1; t <= horizon; ++t) {
    uint8_t present;
    LAHAR_RETURN_NOT_OK(r->U8(&present));
    if (present != 0) {
      std::vector<double>& m = s.marginals_[t];
      LAHAR_RETURN_NOT_OK(r->DoubleVec(&m));
      if (m.size() > s.domain_size()) {
        return Status::InvalidArgument("marginal longer than the domain");
      }
      // A Markovian stream's marginals past t = 1 were chained through its
      // CPTs rather than written, so the write-path bound, whose sum
      // tolerance chaining can compound, is not theirs to meet; they must
      // still be finite.
      const bool chained = s.markovian_ && t > 1;
      for (double p : m) {
        if (chained && !std::isfinite(p)) {
          return Status::InvalidArgument("non-finite chained marginal");
        }
        if (!chained) LAHAR_RETURN_NOT_OK(CheckProbability(p));
      }
    }
  }
  // Set-built and append-built Markovian streams both hold one slot per
  // timestep (slot 0 unused); independent streams hold none.
  uint64_t num_cpts;
  LAHAR_RETURN_NOT_OK(r->U64(&num_cpts));
  if (num_cpts != (s.markovian_ ? horizon : 0)) {
    return Status::InvalidArgument("CPT count does not match the horizon");
  }
  Matrix dense;
  for (uint64_t i = 0; i < num_cpts; ++i) {
    uint64_t rows, cols;
    LAHAR_RETURN_NOT_OK(r->U64(&rows));
    LAHAR_RETURN_NOT_OK(r->U64(&cols));
    // Slices are D x D over the domain as it was when they were written;
    // dividing keeps an untrusted size from wrapping the bound.
    if (rows != cols || cols > s.domain_size() ||
        (cols != 0 && rows > r->remaining() / 8 / cols)) {
      return Status::InvalidArgument("bad CPT dimensions in snapshot");
    }
    dense = Matrix(rows, cols);
    for (uint64_t rr = 0; rr < rows; ++rr) {
      double* row = dense.Row(rr);
      for (uint64_t cc = 0; cc < cols; ++cc) {
        LAHAR_RETURN_NOT_OK(r->F64(&row[cc]));
        LAHAR_RETURN_NOT_OK(CheckProbability(row[cc]));
      }
    }
    s.StoreCpt(static_cast<Timestamp>(i), CptSlice(dense));
  }
  return s;
}

Status Stream::Validate() const {
  for (Timestamp t = 1; t <= horizon_; ++t) {
    if (marginals_[t].empty()) continue;
    if (marginals_[t].size() != domain_.size()) {
      return Status::Internal("marginal size mismatch at t=" +
                              std::to_string(t));
    }
    LAHAR_RETURN_NOT_OK(
        CheckDistribution(marginals_[t].data(), marginals_[t].size()));
  }
  return Status::OK();
}

}  // namespace lahar
