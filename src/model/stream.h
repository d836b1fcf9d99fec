// Probabilistic event streams (Section 2.3).
//
// A stream is the sequence of probabilistic events for one (type, key) pair
// over the timeline 1..T. Timesteps where the key is missing are padded with
// certain-bottom. Two flavours exist:
//
//  * Independent streams (the real-time scenario): one marginal distribution
//    per timestep, independent across time.
//  * Markovian streams (the archived scenario): an initial marginal plus one
//    conditional probability table (CPT) per timestep,
//    E(t)(d', d) = P[e(t+1) = d' | e(t) = d], exactly the relation encoding
//    E(ID, T, A', A, P) of Fig. 3(d).
//
// The value-attribute domain of a stream is interned into dense indices;
// index 0 is always bottom (the event did not occur).
#ifndef LAHAR_MODEL_STREAM_H_
#define LAHAR_MODEL_STREAM_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"
#include "model/cpt.h"
#include "model/event.h"
#include "model/value.h"

namespace lahar {

/// Serializes a value tuple (per value: kind byte + 64-bit payload).
void WriteValueTuple(const ValueTuple& t, serial::Writer* w);
Status ReadValueTuple(serial::Reader* r, ValueTuple* out);

/// Dense index into a stream's value-tuple domain; 0 is bottom.
using DomainIndex = uint32_t;

/// Index 0 of every stream domain: the event did not occur.
inline constexpr DomainIndex kBottom = 0;

/// The one check every stored probability passes, on every path that
/// writes or reads one (Stream's Set/Append calls, ApplyBatch, the text
/// reader, Stream::LoadFrom): finite, and within [-1e-9, 1 + 1e-9].
Status CheckProbability(double p);

/// \brief One probabilistic event stream: (type, key) over timeline 1..T.
class Stream {
 public:
  /// Creates an empty stream. For Markovian streams, call SetInitial and
  /// SetCpt for t = 1..T-1, then FinalizeMarkov(); for independent streams,
  /// call SetMarginal for each t.
  Stream(SymbolId type, ValueTuple key, size_t num_value_attrs,
         Timestamp horizon, bool markovian);

  SymbolId type() const { return type_; }
  const ValueTuple& key() const { return key_; }
  size_t num_value_attrs() const { return num_value_attrs_; }
  Timestamp horizon() const { return horizon_; }
  bool markovian() const { return markovian_; }

  /// Interns a value tuple into the domain, returning its dense index.
  /// The tuple must have num_value_attrs() entries.
  DomainIndex InternTuple(const ValueTuple& values);

  /// Looks up a tuple; returns kNotFound if absent from the domain.
  DomainIndex LookupTuple(const ValueTuple& values) const;
  static constexpr DomainIndex kNotFound = UINT32_MAX;

  /// Domain size D (bottom plus concrete tuples).
  size_t domain_size() const { return domain_.size(); }

  /// Value tuple for a domain index; index 0 (bottom) yields an empty tuple.
  const ValueTuple& TupleOf(DomainIndex d) const { return domain_[d]; }

  /// Sets the marginal at timestep t (independent streams). `dist` has one
  /// entry per domain index and must sum to 1.
  Status SetMarginal(Timestamp t, std::vector<double> dist);

  /// Sets the initial marginal (Markovian streams), i.e. the distribution at
  /// t = 1.
  Status SetInitial(std::vector<double> dist);

  /// Sets the CPT governing the transition from timestep t to t+1
  /// (Markovian streams): cpt.At(d, d') = P[e(t+1) = d' | e(t) = d].
  /// Must pass CheckCpt. Valid t: 1..horizon-1. Stored sparse (model/cpt.h).
  Status SetCpt(Timestamp t, const Matrix& cpt);

  /// Chains the initial marginal through the CPTs to populate the per-step
  /// marginals. Must be called after all SetCpt calls on Markovian streams.
  Status FinalizeMarkov();

  /// Prunes CPT entries below `epsilon` and renormalizes rows — the storage
  /// optimization Section 4.3.2 alludes to (the paper cut its CPT relation
  /// ~26x "without a noticeable degradation in quality"). Marginals are
  /// re-chained afterwards. Returns the number of entries dropped via the
  /// out-parameters (either may be null).
  Status PruneCpts(double epsilon, size_t* entries_before = nullptr,
                   size_t* entries_after = nullptr);

  /// Appends one timestep to an independent stream (extends the horizon).
  /// The domain must already be fully interned.
  Status AppendMarginal(std::vector<double> dist);

  /// Appends the initial marginal (timestep 1) to an *empty* Markovian
  /// stream, giving it horizon 1 — the streaming counterpart of
  /// SetInitial + FinalizeMarkov for a stream declared with horizon 0.
  /// Subsequent timesteps arrive via AppendMarkovStep.
  Status AppendInitial(std::vector<double> dist);

  /// Appends one timestep to a Markovian stream: `cpt` governs the
  /// transition from the current last timestep to the new one; the new
  /// marginal is chained automatically. Requires a set initial marginal;
  /// `cpt` must pass CheckCpt.
  Status AppendMarkovStep(const Matrix& cpt);

  /// The checks SetMarginal / AppendMarginal / AppendInitial run on `dist`
  /// as they store it (resized to the domain): every entry passes
  /// CheckProbability and the entries sum to 1 within 1e-6. Lets a caller
  /// validate an update without mutating the stream.
  Status CheckMarginal(const std::vector<double>& dist) const;

  /// The checks SetCpt / AppendMarkovStep run on `cpt`: D x D over the
  /// current domain, every entry passes CheckProbability, and every row
  /// sums to 1 within 1e-6.
  Status CheckCpt(const Matrix& cpt) const;

  /// Marginal distribution at timestep t (1..horizon). Entries beyond the
  /// stored vector's size are zero.
  const std::vector<double>& MarginalAt(Timestamp t) const;

  /// CPT for the transition t -> t+1, as a view of its stored nonzero
  /// entries. Requires markovian() and 1<=t<horizon. Its dims are the
  /// domain size when the slice was written.
  CptView CptAt(Timestamp t) const;

  /// Content digest of CptAt(t) (CptSlice::digest), computed when the
  /// slice is written, so reading it is O(1). Engines use it to validate
  /// shared transition-row reuse per tick without re-reading slice bytes
  /// (automaton/rows.h); equal digests on structurally equal streams mean
  /// bit-equal slices. Same preconditions as CptAt.
  const std::array<uint64_t, 2>& CptDigestAt(Timestamp t) const;

  /// Marginal probability of domain index d at time t (0 if out of range).
  double ProbAt(Timestamp t, DomainIndex d) const;

  /// The probabilistic event at timestep t, in the Section-2.3 form.
  ProbabilisticEvent EventAt(Timestamp t) const;

  /// Samples a full trajectory (values[1..horizon]; index 0 is unused).
  std::vector<DomainIndex> SampleTrajectory(Rng* rng) const;

  /// Probability of a trajectory under Eq. (1). `traj[t]` for t=1..horizon.
  double TrajectoryProb(const std::vector<DomainIndex>& traj) const;

  /// Checks all stored distributions.
  Status Validate() const;

  /// Stored CPT entries and the bytes their slices hold (model/cpt.h).
  size_t cpt_entries() const { return cpt_entries_; }
  size_t cpt_bytes() const { return cpt_bytes_; }

  /// Field-exact binary snapshot for checkpointing. Unlike the Append/Set
  /// API, this preserves unset (certain-bottom) timesteps and marginals
  /// recorded before later domain growth exactly as stored, so LoadFrom
  /// reproduces the stream state bit-for-bit. CPT slices are written
  /// dense (rows x cols doubles, zeros included) and re-sparsified on load;
  /// LoadFrom refuses any entry that fails CheckProbability.
  void SaveTo(serial::Writer* w) const;
  static Result<Stream> LoadFrom(serial::Reader* r);

 private:
  SymbolId type_;
  ValueTuple key_;
  size_t num_value_attrs_;
  Timestamp horizon_;
  bool markovian_;

  std::vector<ValueTuple> domain_;  // [0] = bottom (empty tuple)
  std::unordered_map<ValueTuple, DomainIndex, ValueTupleHash> domain_index_;

  // Replaces cpts_[t], keeping the footprint counters current.
  void StoreCpt(Timestamp t, CptSlice slice);

  // marginals_[t] for t = 1..horizon (index 0 unused).
  std::vector<std::vector<double>> marginals_;

  // cpts_[t] is the transition t -> t+1, for t = 1..horizon-1 (Markovian).
  // Each slice owns its buffers, so appending slices never moves entries.
  std::vector<CptSlice> cpts_;
  size_t cpt_entries_ = 0;
  size_t cpt_bytes_ = 0;  // the slices' buffers plus sizeof each slot
};

}  // namespace lahar

#endif  // LAHAR_MODEL_STREAM_H_
