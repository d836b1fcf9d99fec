#include "runtime/replay.h"

#include <string>

namespace lahar {

Result<std::unique_ptr<EventDatabase>> CloneDeclarations(
    const EventDatabase& src) {
  auto dst = std::make_unique<EventDatabase>();
  // Re-intern every symbol in id order so SymbolIds transfer verbatim.
  for (SymbolId id = 0; id < src.interner().size(); ++id) {
    SymbolId got = dst->interner().Intern(src.interner().Name(id));
    if (got != id) {
      return Status::Internal("interner clone produced id " +
                              std::to_string(got) + " for " +
                              std::to_string(id));
    }
  }
  for (const auto& [type, schema] : src.schemas()) {
    (void)type;
    LAHAR_RETURN_NOT_OK(dst->DeclareSchema(schema));
  }
  for (const auto& [name, rel] : src.relations()) {
    LAHAR_ASSIGN_OR_RETURN(
        Relation * cloned,
        dst->DeclareRelation(src.interner().Name(name), rel->arity()));
    for (const ValueTuple& t : rel->tuples()) {
      LAHAR_RETURN_NOT_OK(cloned->Insert(t));
    }
  }
  for (StreamId id = 0; id < src.num_streams(); ++id) {
    const Stream& s = src.stream(id);
    Stream empty(s.type(), s.key(), s.num_value_attrs(), /*horizon=*/0,
                 s.markovian());
    // Domains are final at session creation, so intern the full domain in
    // the source's order (index 0 is bottom in both).
    for (DomainIndex d = 1; d < s.domain_size(); ++d) {
      empty.InternTuple(s.TupleOf(d));
    }
    LAHAR_ASSIGN_OR_RETURN(StreamId got, dst->AddStream(std::move(empty)));
    if (got != id) {
      return Status::Internal("stream clone produced id " +
                              std::to_string(got));
    }
  }
  return dst;
}

Result<TickBatch> BatchForTick(const EventDatabase& src, Timestamp t) {
  if (t < 1) return Status::OutOfRange("ticks start at 1");
  TickBatch batch;
  batch.t = t;
  for (StreamId id = 0; id < src.num_streams(); ++id) {
    const Stream& s = src.stream(id);
    StreamUpdate u;
    u.stream = id;
    if (s.markovian()) {
      if (t == 1) {
        u.marginal = s.horizon() >= 1 ? s.MarginalAt(1)
                                      : std::vector<double>{1.0};
      } else if (t <= s.horizon()) {
        u.cpt = s.CptAt(t - 1).ToDense();
      } else {
        // Ended stream: identity CPT holds the last value so the watermark
        // keeps moving (see header caveat).
        Matrix identity(s.domain_size(), s.domain_size(), 0.0);
        for (size_t d = 0; d < s.domain_size(); ++d) identity.At(d, d) = 1.0;
        u.cpt = std::move(identity);
      }
    } else {
      if (t <= s.horizon() && !s.MarginalAt(t).empty()) {
        u.marginal = s.MarginalAt(t);
      } else {
        // Unset or past-the-end timestep: certain bottom.
        u.marginal.assign(s.domain_size(), 0.0);
        u.marginal[kBottom] = 1.0;
      }
    }
    batch.updates.push_back(std::move(u));
  }
  return batch;
}

Result<std::vector<TickBatch>> ExtractBatches(const EventDatabase& src) {
  std::vector<TickBatch> out;
  out.reserve(src.horizon());
  for (Timestamp t = 1; t <= src.horizon(); ++t) {
    LAHAR_ASSIGN_OR_RETURN(TickBatch batch, BatchForTick(src, t));
    out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace lahar
