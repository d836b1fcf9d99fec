// Shared helpers for building small probabilistic event databases in tests.
#ifndef LAHAR_TESTS_TEST_UTIL_H_
#define LAHAR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/prepared.h"
#include "engine/extended_engine.h"
#include "engine/session.h"
#include "model/database.h"
#include "query/parser.h"

namespace lahar {
namespace testing {

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::lahar::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const ::lahar::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

/// A per-timestep distribution over single-attribute outcomes given as
/// (location-name, probability) pairs; missing mass is bottom.
using StepDist = std::vector<std::pair<std::string, double>>;

/// Declares the one-value-attribute schema Type(key | value) if absent.
inline void DeclareUnarySchema(EventDatabase* db, const std::string& type) {
  EventSchema schema;
  schema.type = db->interner().Intern(type);
  schema.attr_names = {db->interner().Intern("id"),
                       db->interner().Intern("value")};
  schema.num_key_attrs = 1;
  (void)db->DeclareSchema(schema);  // ignore AlreadyExists
}

/// Adds an independent stream of `type` for key `key` with the given
/// per-timestep distributions (timestep 1 first).
inline StreamId AddIndependentStream(EventDatabase* db,
                                     const std::string& type,
                                     const std::string& key,
                                     const std::vector<StepDist>& steps) {
  DeclareUnarySchema(db, type);
  Stream s(db->interner().Intern(type), {db->Sym(key)}, 1,
           static_cast<Timestamp>(steps.size()), /*markovian=*/false);
  // Intern the full domain first so distributions are sized consistently.
  for (const StepDist& step : steps) {
    for (const auto& [name, p] : step) {
      s.InternTuple({db->Sym(name)});
    }
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    std::vector<double> dist(s.domain_size(), 0.0);
    double total = 0;
    for (const auto& [name, p] : steps[i]) {
      dist[s.LookupTuple({db->Sym(name)})] += p;
      total += p;
    }
    dist[kBottom] = 1.0 - total;
    EXPECT_TRUE(s.SetMarginal(static_cast<Timestamp>(i + 1), dist).ok());
  }
  auto id = db->AddStream(std::move(s));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return *id;
}

/// Adds a deterministic stream: one certain location per timestep ("" means
/// bottom / no event).
inline StreamId AddCertainStream(EventDatabase* db, const std::string& type,
                                 const std::string& key,
                                 const std::vector<std::string>& locs) {
  std::vector<StepDist> steps;
  for (const std::string& l : locs) {
    steps.push_back(l.empty() ? StepDist{} : StepDist{{l, 1.0}});
  }
  return AddIndependentStream(db, type, key, steps);
}

/// Adds a Markovian stream over `domain` with a uniform initial
/// distribution over the named states and a self-transition-biased CPT.
/// `self` is the self-transition probability; remaining mass spreads
/// uniformly over the other states (bottom excluded from the domain here).
inline StreamId AddMarkovStream(EventDatabase* db, const std::string& type,
                                const std::string& key,
                                const std::vector<std::string>& domain,
                                Timestamp horizon, double self) {
  DeclareUnarySchema(db, type);
  Stream s(db->interner().Intern(type), {db->Sym(key)}, 1, horizon,
           /*markovian=*/true);
  for (const std::string& d : domain) s.InternTuple({db->Sym(d)});
  size_t n = s.domain_size();  // includes bottom
  std::vector<double> init(n, 0.0);
  for (size_t d = 1; d < n; ++d) init[d] = 1.0 / domain.size();
  EXPECT_TRUE(s.SetInitial(init).ok());
  Matrix cpt(n, n, 0.0);
  // Bottom stays bottom (keys never reappear in this toy builder).
  cpt.At(0, 0) = 1.0;
  for (size_t d = 1; d < n; ++d) {
    for (size_t d2 = 1; d2 < n; ++d2) {
      cpt.At(d, d2) = d == d2 ? self : (1.0 - self) / (domain.size() - 1);
    }
    if (domain.size() == 1) cpt.At(d, d) = 1.0;
  }
  for (Timestamp t = 1; t < horizon; ++t) {
    EXPECT_TRUE(s.SetCpt(t, cpt).ok());
  }
  EXPECT_TRUE(s.FinalizeMarkov().ok());
  auto id = db->AddStream(std::move(s));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return *id;
}

/// Adds tuples to a (unary or n-ary) relation.
inline void AddRelation(EventDatabase* db, const std::string& name,
                        const std::vector<std::vector<std::string>>& tuples) {
  size_t arity = tuples.empty() ? 1 : tuples[0].size();
  auto rel = db->DeclareRelation(name, arity);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  for (const auto& t : tuples) {
    ValueTuple vt;
    for (const auto& s : t) vt.push_back(db->Sym(s));
    ASSERT_TRUE((*rel)->Insert(vt).ok());
  }
}

/// Parses a query, asserting success.
inline QueryPtr MustParse(EventDatabase* db, const std::string& text) {
  auto q = ParseQuery(text, &db->interner());
  EXPECT_TRUE(q.ok()) << q.status().ToString() << " in: " << text;
  return q.ok() ? *q : nullptr;
}

/// Prepares a query (parse, normalize, classify), expecting success.
inline PreparedQuery MustPrepare(EventDatabase* db, const std::string& text) {
  auto prepared = PrepareQuery(text, db);
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString()
                             << " in: " << text;
  return prepared.ok() ? std::move(*prepared) : PreparedQuery{};
}

/// Prepares `text` and builds the chain engine CreateQuerySession routes
/// Regular and Extended Regular queries to.
inline Result<ExtendedRegularEngine> ChainSession(EventDatabase* db,
                                                  const std::string& text) {
  return ExtendedRegularEngine::Create(MustPrepare(db, text), *db);
}

/// Advances a session one tick, expecting success; P[q@t], or NaN when the
/// advance failed.
inline double MustAdvance(QuerySession& session) {
  Result<double> p = session.Advance();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ok() ? *p : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace testing
}  // namespace lahar

#endif  // LAHAR_TESTS_TEST_UTIL_H_
