#include "model/database.h"

#include <algorithm>

namespace lahar {

Status Relation::Insert(ValueTuple t) {
  if (t.size() != arity_) {
    return Status::InvalidArgument("relation tuple arity mismatch");
  }
  tuples_.insert(std::move(t));
  return Status::OK();
}

Status EventDatabase::DeclareSchema(EventSchema schema) {
  if (schema.num_key_attrs > schema.attr_names.size()) {
    return Status::InvalidArgument("key wider than schema");
  }
  auto [it, inserted] = schemas_.emplace(schema.type, std::move(schema));
  (void)it;
  if (!inserted) return Status::AlreadyExists("schema already declared");
  return Status::OK();
}

const EventSchema* EventDatabase::FindSchema(SymbolId type) const {
  auto it = schemas_.find(type);
  return it == schemas_.end() ? nullptr : &it->second;
}

Result<StreamId> EventDatabase::AddStream(Stream stream) {
  const EventSchema* schema = FindSchema(stream.type());
  if (schema == nullptr) {
    return Status::NotFound("no schema for stream type '" +
                            interner_->Name(stream.type()) + "'");
  }
  if (stream.key().size() != schema->num_key_attrs ||
      stream.num_value_attrs() != schema->num_value_attrs()) {
    return Status::InvalidArgument("stream shape does not match schema");
  }
  StreamId id = static_cast<StreamId>(streams_.size());
  horizon_ = std::max(horizon_, stream.horizon());
  streams_by_type_[stream.type()].push_back(id);
  streams_.push_back(std::move(stream));
  return id;
}

std::vector<StreamId> EventDatabase::StreamsOfType(SymbolId type) const {
  auto it = streams_by_type_.find(type);
  return it == streams_by_type_.end() ? std::vector<StreamId>{} : it->second;
}

Result<Relation*> EventDatabase::DeclareRelation(std::string_view name,
                                                 size_t arity) {
  SymbolId id = interner_->Intern(name);
  auto it = relations_.find(id);
  if (it != relations_.end()) {
    if (it->second->arity() != arity) {
      return Status::InvalidArgument("relation redeclared with new arity");
    }
    return it->second.get();
  }
  auto rel = std::make_unique<Relation>(id, arity);
  Relation* ptr = rel.get();
  relations_.emplace(id, std::move(rel));
  return ptr;
}

const Relation* EventDatabase::FindRelation(SymbolId name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Relation* EventDatabase::FindRelation(SymbolId name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Status EventDatabase::AppendMarginal(StreamId id, std::vector<double> dist) {
  if (id >= streams_.size()) return Status::OutOfRange("bad stream id");
  LAHAR_RETURN_NOT_OK(streams_[id].AppendMarginal(std::move(dist)));
  horizon_ = std::max(horizon_, streams_[id].horizon());
  return Status::OK();
}

Status EventDatabase::AppendInitial(StreamId id, std::vector<double> dist) {
  if (id >= streams_.size()) return Status::OutOfRange("bad stream id");
  LAHAR_RETURN_NOT_OK(streams_[id].AppendInitial(std::move(dist)));
  horizon_ = std::max(horizon_, streams_[id].horizon());
  return Status::OK();
}

Status EventDatabase::AppendMarkovStep(StreamId id, const Matrix& cpt) {
  if (id >= streams_.size()) return Status::OutOfRange("bad stream id");
  LAHAR_RETURN_NOT_OK(streams_[id].AppendMarkovStep(cpt));
  horizon_ = std::max(horizon_, streams_[id].horizon());
  return Status::OK();
}

size_t EventDatabase::TotalTuples() const {
  size_t total = 0;
  for (const Stream& s : streams_) {
    for (Timestamp t = 1; t <= s.horizon(); ++t) {
      const auto& m = s.MarginalAt(t);
      for (double p : m) total += p > 0 ? 1 : 0;
    }
  }
  return total;
}

Status EventDatabase::Validate() const {
  for (const Stream& s : streams_) LAHAR_RETURN_NOT_OK(s.Validate());
  return Status::OK();
}

Status EventDatabase::SaveTo(serial::Writer* w) const {
  // Interner strings in id order; re-interning them in order at load time
  // reproduces the exact same ids, so raw SymbolIds round-trip everywhere
  // below. Id 0 (the empty string) is implicit in a fresh interner.
  w->U64(interner_->size());
  for (SymbolId id = 1; id < interner_->size(); ++id) {
    w->Str(interner_->Name(id));
  }

  std::vector<SymbolId> schema_ids;
  schema_ids.reserve(schemas_.size());
  for (const auto& [type, schema] : schemas_) schema_ids.push_back(type);
  std::sort(schema_ids.begin(), schema_ids.end());
  w->U64(schema_ids.size());
  for (SymbolId type : schema_ids) {
    const EventSchema& schema = schemas_.at(type);
    w->U32(schema.type);
    w->U64(schema.attr_names.size());
    for (SymbolId a : schema.attr_names) w->U32(a);
    w->U64(schema.num_key_attrs);
  }

  std::vector<SymbolId> rel_ids;
  rel_ids.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) rel_ids.push_back(name);
  std::sort(rel_ids.begin(), rel_ids.end());
  w->U64(rel_ids.size());
  for (SymbolId name : rel_ids) {
    const Relation& rel = *relations_.at(name);
    w->U32(rel.name());
    w->U64(rel.arity());
    std::vector<ValueTuple> tuples(rel.tuples().begin(), rel.tuples().end());
    std::sort(tuples.begin(), tuples.end());
    w->U64(tuples.size());
    for (const ValueTuple& t : tuples) WriteValueTuple(t, w);
  }

  w->U64(streams_.size());
  for (const Stream& s : streams_) s.SaveTo(w);
  w->U32(horizon_);
  return Status::OK();
}

Result<std::unique_ptr<EventDatabase>> EventDatabase::LoadFrom(
    serial::Reader* r) {
  auto db = std::make_unique<EventDatabase>();

  uint64_t num_symbols;
  LAHAR_RETURN_NOT_OK(r->U64(&num_symbols));
  for (uint64_t id = 1; id < num_symbols; ++id) {
    std::string name;
    LAHAR_RETURN_NOT_OK(r->Str(&name));
    SymbolId got = db->interner_->Intern(name);
    if (got != id) {
      return Status::InvalidArgument("duplicate symbol in snapshot");
    }
  }

  uint64_t num_schemas;
  LAHAR_RETURN_NOT_OK(r->U64(&num_schemas));
  for (uint64_t i = 0; i < num_schemas; ++i) {
    EventSchema schema;
    uint64_t arity;
    LAHAR_RETURN_NOT_OK(r->U32(&schema.type));
    LAHAR_RETURN_NOT_OK(r->U64(&arity));
    schema.attr_names.resize(arity);
    for (uint64_t a = 0; a < arity; ++a) {
      LAHAR_RETURN_NOT_OK(r->U32(&schema.attr_names[a]));
    }
    LAHAR_RETURN_NOT_OK(r->U64(&schema.num_key_attrs));
    LAHAR_RETURN_NOT_OK(db->DeclareSchema(std::move(schema)));
  }

  uint64_t num_relations;
  LAHAR_RETURN_NOT_OK(r->U64(&num_relations));
  for (uint64_t i = 0; i < num_relations; ++i) {
    uint32_t name;
    uint64_t arity, num_tuples;
    LAHAR_RETURN_NOT_OK(r->U32(&name));
    LAHAR_RETURN_NOT_OK(r->U64(&arity));
    if (name >= db->interner_->size()) {
      return Status::InvalidArgument("relation name id out of range");
    }
    LAHAR_ASSIGN_OR_RETURN(Relation * rel,
                           db->DeclareRelation(db->interner_->Name(name),
                                               arity));
    LAHAR_RETURN_NOT_OK(r->U64(&num_tuples));
    for (uint64_t t = 0; t < num_tuples; ++t) {
      ValueTuple tuple;
      LAHAR_RETURN_NOT_OK(ReadValueTuple(r, &tuple));
      LAHAR_RETURN_NOT_OK(rel->Insert(std::move(tuple)));
    }
  }

  uint64_t num_streams;
  LAHAR_RETURN_NOT_OK(r->U64(&num_streams));
  for (uint64_t i = 0; i < num_streams; ++i) {
    LAHAR_ASSIGN_OR_RETURN(Stream s, Stream::LoadFrom(r));
    LAHAR_RETURN_NOT_OK(db->AddStream(std::move(s)).status());
  }
  LAHAR_RETURN_NOT_OK(r->U32(&db->horizon_));
  return db;
}

}  // namespace lahar
