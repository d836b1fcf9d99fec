#include "model/io.h"

#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

namespace lahar {
namespace {

std::string ValueToken(const Value& v, const Interner& interner) {
  if (v.is_int()) return "#" + std::to_string(v.int_value());
  if (v.is_symbol()) return interner.Name(v.symbol());
  return "#null";  // never produced by valid databases
}

Result<Value> ParseValueToken(const std::string& token, Interner* interner) {
  if (!token.empty() && token[0] == '#') {
    if (token == "#null") return Value();
    char* end = nullptr;
    long long n = std::strtoll(token.c_str() + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::ParseError("bad integer value '" + token + "'");
    }
    return Value::Int(n);
  }
  return Value::Symbol(interner->Intern(token));
}

std::string TupleToken(const ValueTuple& t, const Interner& interner) {
  std::string out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) out += ",";
    out += ValueToken(t[i], interner);
  }
  return out;
}

Result<ValueTuple> ParseTupleToken(const std::string& token,
                                   Interner* interner) {
  ValueTuple out;
  std::stringstream ss(token);
  std::string part;
  while (std::getline(ss, part, ',')) {
    LAHAR_ASSIGN_OR_RETURN(Value v, ParseValueToken(part, interner));
    out.push_back(v);
  }
  return out;
}

void WriteSparseDist(const std::vector<double>& dist, std::ostream* out) {
  for (size_t d = 0; d < dist.size(); ++d) {
    if (dist[d] > 0) *out << " " << d << ":" << dist[d];
  }
}

}  // namespace

Status WriteDatabase(const EventDatabase& db, std::ostream* out) {
  const Interner& in = db.interner();
  out->precision(17);
  *out << "lahar-db 1\n";

  for (const auto& [type, schema] : db.schemas()) {
    *out << "schema " << in.Name(type) << " " << schema.num_key_attrs;
    for (SymbolId attr : schema.attr_names) *out << " " << in.Name(attr);
    *out << "\n";
  }
  for (const auto& [name, rel] : db.relations()) {
    *out << "relation " << in.Name(name) << " " << rel->arity() << "\n";
    for (const ValueTuple& t : rel->tuples()) {
      *out << "rel " << in.Name(name);
      for (const Value& v : t) *out << " " << ValueToken(v, in);
      *out << "\n";
    }
  }
  for (StreamId s = 0; s < db.num_streams(); ++s) {
    const Stream& stream = db.stream(s);
    *out << "stream " << in.Name(stream.type()) << " "
         << (stream.markovian() ? "markov" : "independent") << " "
         << stream.horizon() << "\n";
    *out << "key";
    for (const Value& v : stream.key()) *out << " " << ValueToken(v, in);
    *out << "\n";
    *out << "domain";
    for (DomainIndex d = 1; d < stream.domain_size(); ++d) {
      *out << " " << TupleToken(stream.TupleOf(d), in);
    }
    *out << "\n";
    if (!stream.markovian()) {
      for (Timestamp t = 1; t <= stream.horizon(); ++t) {
        const auto& m = stream.MarginalAt(t);
        if (m.empty()) continue;
        *out << "marginal " << t;
        WriteSparseDist(m, out);
        *out << "\n";
      }
    } else {
      *out << "initial";
      WriteSparseDist(stream.MarginalAt(1), out);
      *out << "\n";
      for (Timestamp t = 1; t < stream.horizon(); ++t) {
        const CptView cpt = stream.CptAt(t);
        *out << "cpt " << t;
        for (size_t r = 0; r < cpt.rows(); ++r) {
          for (const CptEntry e : cpt.Row(r)) {
            if (e.p > 0) *out << " " << r << ":" << e.col << ":" << e.p;
          }
        }
        *out << "\n";
      }
    }
  }
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Status WriteDatabaseToFile(const EventDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for writing");
  return WriteDatabase(db, &out);
}

namespace {

// Non-throwing numeric parsing: the reader must reject malformed input with
// a Status, never an exception.
Result<size_t> ParseIndex(const std::string& token) {
  if (token.empty()) return Status::ParseError("empty index");
  char* end = nullptr;
  unsigned long v = std::strtoul(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == token.c_str()) {
    return Status::ParseError("bad index '" + token + "'");
  }
  return static_cast<size_t>(v);
}

Result<double> ParseProb(const std::string& token) {
  if (token.empty()) return Status::ParseError("empty probability");
  char* end = nullptr;
  double v = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == token.c_str() ||
      !CheckProbability(v).ok()) {
    return Status::ParseError("bad probability '" + token + "'");
  }
  return v;
}

Result<std::pair<size_t, double>> ParseIdxProb(const std::string& token) {
  size_t colon = token.find(':');
  if (colon == std::string::npos) {
    return Status::ParseError("expected idx:prob, got '" + token + "'");
  }
  LAHAR_ASSIGN_OR_RETURN(size_t idx, ParseIndex(token.substr(0, colon)));
  LAHAR_ASSIGN_OR_RETURN(double p, ParseProb(token.substr(colon + 1)));
  return std::make_pair(idx, p);
}

}  // namespace

Result<std::unique_ptr<EventDatabase>> ReadDatabase(std::istream* in) {
  auto db = std::make_unique<EventDatabase>();
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;

  // The stream currently being assembled (streams span several lines).
  SymbolId pending_type = 0;
  bool pending_markov = false;
  Timestamp pending_horizon = 0;
  ValueTuple pending_key;
  std::vector<ValueTuple> pending_domain;
  std::vector<std::pair<Timestamp, std::vector<double>>> pending_marginals;
  std::vector<double> pending_initial;
  // Each cpt line is kept as its CSR slice, so one dense D x D table
  // exists at a time. The stream takes the tables only at its end, because
  // SetCpt checks them against the final domain, which later domain lines
  // may still grow; a slice re-expands to the exact table it came from.
  std::vector<std::pair<Timestamp, CptSlice>> pending_cpts;
  bool in_stream = false;

  auto err = [&](const std::string& msg) {
    return Status::ParseError(msg + " at line " + std::to_string(line_no));
  };

  auto flush_stream = [&]() -> Status {
    if (!in_stream) return Status::OK();
    const EventSchema* schema = db->FindSchema(pending_type);
    if (schema == nullptr) {
      return Status::ParseError("stream before its schema");
    }
    Stream stream(pending_type, pending_key,
                  schema->num_value_attrs(), pending_horizon, pending_markov);
    for (const ValueTuple& t : pending_domain) {
      if (t.size() != schema->num_value_attrs()) {
        return Status::ParseError("domain tuple arity does not match schema");
      }
      stream.InternTuple(t);
    }
    if (!pending_markov) {
      for (auto& [t, dist] : pending_marginals) {
        LAHAR_RETURN_NOT_OK(stream.SetMarginal(t, std::move(dist)));
      }
    } else {
      LAHAR_RETURN_NOT_OK(stream.SetInitial(pending_initial));
      for (const auto& [t, slice] : pending_cpts) {
        LAHAR_RETURN_NOT_OK(stream.SetCpt(t, slice.view().ToDense()));
      }
      LAHAR_RETURN_NOT_OK(stream.FinalizeMarkov());
    }
    LAHAR_RETURN_NOT_OK(db->AddStream(std::move(stream)).status());
    in_stream = false;
    pending_domain.clear();
    pending_marginals.clear();
    pending_initial.clear();
    pending_cpts.clear();
    return Status::OK();
  };

  while (std::getline(*in, line)) {
    ++line_no;
    std::stringstream ss(line);
    std::string directive;
    if (!(ss >> directive) || directive[0] == '#') continue;
    if (!saw_header) {
      int version = 0;
      if (directive != "lahar-db" || !(ss >> version) || version != 1) {
        return err("expected 'lahar-db 1' header");
      }
      saw_header = true;
      continue;
    }
    if (directive == "schema") {
      LAHAR_RETURN_NOT_OK(flush_stream());
      std::string type;
      size_t num_key = 0;
      if (!(ss >> type >> num_key)) return err("bad schema line");
      EventSchema schema;
      schema.type = db->interner().Intern(type);
      schema.num_key_attrs = num_key;
      std::string attr;
      while (ss >> attr) {
        schema.attr_names.push_back(db->interner().Intern(attr));
      }
      LAHAR_RETURN_NOT_OK(db->DeclareSchema(std::move(schema)));
    } else if (directive == "relation") {
      LAHAR_RETURN_NOT_OK(flush_stream());
      std::string name;
      size_t arity = 0;
      if (!(ss >> name >> arity)) return err("bad relation line");
      LAHAR_RETURN_NOT_OK(db->DeclareRelation(name, arity).status());
    } else if (directive == "rel") {
      std::string name;
      if (!(ss >> name)) return err("bad rel line");
      Relation* found = db->FindRelation(db->interner().Intern(name));
      if (found == nullptr) return err("rel before relation declaration");
      ValueTuple tuple;
      std::string token;
      while (ss >> token) {
        LAHAR_ASSIGN_OR_RETURN(Value v,
                               ParseValueToken(token, &db->interner()));
        tuple.push_back(v);
      }
      LAHAR_RETURN_NOT_OK(found->Insert(tuple));
    } else if (directive == "stream") {
      LAHAR_RETURN_NOT_OK(flush_stream());
      std::string type, kind;
      if (!(ss >> type >> kind >> pending_horizon)) {
        return err("bad stream line");
      }
      pending_type = db->interner().Intern(type);
      if (kind == "markov") {
        pending_markov = true;
      } else if (kind == "independent") {
        pending_markov = false;
      } else {
        return err("stream kind must be 'independent' or 'markov'");
      }
      pending_key.clear();
      in_stream = true;
    } else if (directive == "key") {
      if (!in_stream) return err("key outside a stream");
      std::string token;
      pending_key.clear();
      while (ss >> token) {
        LAHAR_ASSIGN_OR_RETURN(Value v,
                               ParseValueToken(token, &db->interner()));
        pending_key.push_back(v);
      }
    } else if (directive == "domain") {
      if (!in_stream) return err("domain outside a stream");
      std::string token;
      while (ss >> token) {
        LAHAR_ASSIGN_OR_RETURN(ValueTuple t,
                               ParseTupleToken(token, &db->interner()));
        pending_domain.push_back(std::move(t));
      }
    } else if (directive == "marginal") {
      if (!in_stream) return err("marginal outside a stream");
      if (pending_markov) return err("marginal line inside a markov stream");
      Timestamp t = 0;
      if (!(ss >> t)) return err("bad marginal line");
      std::vector<double> dist(pending_domain.size() + 1, 0.0);
      std::string token;
      while (ss >> token) {
        LAHAR_ASSIGN_OR_RETURN(auto ip, ParseIdxProb(token));
        if (ip.first >= dist.size()) return err("marginal index out of range");
        dist[ip.first] = ip.second;
      }
      pending_marginals.emplace_back(t, std::move(dist));
    } else if (directive == "initial") {
      if (!in_stream) return err("initial outside a stream");
      if (!pending_markov) {
        return err("initial line inside an independent stream");
      }
      pending_initial.assign(pending_domain.size() + 1, 0.0);
      std::string token;
      while (ss >> token) {
        LAHAR_ASSIGN_OR_RETURN(auto ip, ParseIdxProb(token));
        if (ip.first >= pending_initial.size()) {
          return err("initial index out of range");
        }
        pending_initial[ip.first] = ip.second;
      }
    } else if (directive == "cpt") {
      if (!in_stream) return err("cpt outside a stream");
      if (!pending_markov) return err("cpt line inside an independent stream");
      Timestamp t = 0;
      if (!(ss >> t)) return err("bad cpt line");
      const size_t D = pending_domain.size() + 1;
      Matrix cpt(D, D, 0.0);
      std::string token;
      while (ss >> token) {
        size_t c1 = token.find(':');
        size_t c2 = token.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos) {
          return err("expected from:to:prob, got '" + token + "'");
        }
        LAHAR_ASSIGN_OR_RETURN(size_t from, ParseIndex(token.substr(0, c1)));
        LAHAR_ASSIGN_OR_RETURN(size_t to,
                               ParseIndex(token.substr(c1 + 1, c2 - c1 - 1)));
        if (from >= D || to >= D) return err("cpt index out of range");
        LAHAR_ASSIGN_OR_RETURN(cpt.At(from, to),
                               ParseProb(token.substr(c2 + 1)));
      }
      pending_cpts.emplace_back(t, CptSlice(cpt));
    } else {
      return err("unknown directive '" + directive + "'");
    }
  }
  LAHAR_RETURN_NOT_OK(flush_stream());
  if (!saw_header) return Status::ParseError("empty or headerless input");
  return db;
}

Result<std::unique_ptr<EventDatabase>> ReadDatabaseFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  return ReadDatabase(&in);
}

}  // namespace lahar
