// The probabilistic event database (Section 2.3): a set of probabilistic
// event streams plus optional finite ("standard") relations used by query
// conditions such as Hallway(l) or Office(p, l).
#ifndef LAHAR_MODEL_DATABASE_H_
#define LAHAR_MODEL_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "model/event.h"
#include "model/stream.h"

namespace lahar {

/// Dense id of a stream within its database.
using StreamId = uint32_t;

/// \brief A finite deterministic relation, e.g. Hallway(l) or Office(p, l).
class Relation {
 public:
  Relation(SymbolId name, size_t arity) : name_(name), arity_(arity) {}

  SymbolId name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }

  Status Insert(ValueTuple t);
  bool Contains(const ValueTuple& t) const { return tuples_.count(t) > 0; }

  const std::unordered_set<ValueTuple, ValueTupleHash>& tuples() const {
    return tuples_;
  }

 private:
  SymbolId name_;
  size_t arity_;
  std::unordered_set<ValueTuple, ValueTupleHash> tuples_;
};

/// \brief A probabilistic event database: streams, schemas, and relations.
///
/// Owns the string interner so that symbols are consistent across queries,
/// streams, and relations. Streams are appended and then referenced by
/// StreamId everywhere else.
class EventDatabase {
 public:
  EventDatabase() : interner_(std::make_unique<Interner>()) {}

  Interner& interner() { return *interner_; }
  const Interner& interner() const { return *interner_; }

  /// Shorthand for interning a string and wrapping it as a symbol Value.
  Value Sym(std::string_view s) { return Value::Symbol(interner_->Intern(s)); }

  /// Declares an event-type schema. Fails if the type already exists.
  Status DeclareSchema(EventSchema schema);

  /// Returns the schema for an event type, or nullptr if undeclared.
  const EventSchema* FindSchema(SymbolId type) const;

  /// Adds a stream; its type must have a declared schema with a matching
  /// arity and the key must match the schema's key arity.
  Result<StreamId> AddStream(Stream stream);

  size_t num_streams() const { return streams_.size(); }
  Stream& stream(StreamId id) { return streams_[id]; }
  const Stream& stream(StreamId id) const { return streams_[id]; }

  /// All streams of the given event type.
  std::vector<StreamId> StreamsOfType(SymbolId type) const;

  /// Creates (or returns the existing) relation `name` with `arity`.
  Result<Relation*> DeclareRelation(std::string_view name, size_t arity);

  /// Returns the relation, or nullptr if undeclared.
  const Relation* FindRelation(SymbolId name) const;
  Relation* FindRelation(SymbolId name);

  /// All declared schemas / relations (serialization and tooling).
  const std::unordered_map<SymbolId, EventSchema>& schemas() const {
    return schemas_;
  }
  const std::unordered_map<SymbolId, std::unique_ptr<Relation>>& relations()
      const {
    return relations_;
  }

  /// Appends one timestep to a stream (see Stream::AppendMarginal /
  /// AppendInitial / AppendMarkovStep) and advances the database clock.
  Status AppendMarginal(StreamId id, std::vector<double> dist);
  Status AppendInitial(StreamId id, std::vector<double> dist);
  Status AppendMarkovStep(StreamId id, const Matrix& cpt);

  /// Largest horizon across streams (the database clock T).
  Timestamp horizon() const { return horizon_; }

  /// Total number of (timestep, outcome) entries across all streams — the
  /// "tuples" count used in throughput metrics.
  size_t TotalTuples() const;

  /// Validates all streams.
  Status Validate() const;

  /// Binary snapshot of the whole database (interner, schemas, relations,
  /// streams, clock) for checkpointing. Deterministic: iteration over the
  /// unordered containers is sorted before writing, so identical databases
  /// produce identical bytes. LoadFrom rebuilds an equivalent database with
  /// the same symbol ids and stream ids.
  Status SaveTo(serial::Writer* w) const;
  static Result<std::unique_ptr<EventDatabase>> LoadFrom(serial::Reader* r);

 private:
  std::unique_ptr<Interner> interner_;
  std::unordered_map<SymbolId, EventSchema> schemas_;
  std::vector<Stream> streams_;
  std::unordered_map<SymbolId, std::vector<StreamId>> streams_by_type_;
  std::unordered_map<SymbolId, std::unique_ptr<Relation>> relations_;
  Timestamp horizon_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_MODEL_DATABASE_H_
