// Lahar: the top-level event processing system. Parses a query, classifies
// it (Regular / Extended Regular / Safe / Unsafe), routes it to the
// cheapest applicable engine, and returns per-timestep probabilities —
// the event query evaluation problem mu(q@t) of Section 2.3.
//
// There is one evaluation path per query class. CreateQuerySession
// (engine/session.h) is the only place a class is mapped to an engine;
// batch Run() opens that same session and drives it to the database
// horizon, so a batch answer and a standing query's per-tick answers come
// from the same code.
//
//   EventDatabase db = ...;                 // streams + relations
//   Lahar lahar(&db);
//   auto result = lahar.Run("At('Joe', l : CRoom(l))");
//   for (t) result->probs[t];               // P[query satisfied at t]
#ifndef LAHAR_ENGINE_LAHAR_H_
#define LAHAR_ENGINE_LAHAR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/classify.h"
#include "analysis/plan.h"
#include "analysis/prepared.h"
#include "engine/regular_engine.h"
#include "engine/sampling_engine.h"
#include "engine/session.h"
#include "query/ast.h"

namespace lahar {

/// Options for the Lahar facade.
struct LaharOptions {
  PlanOptions plan;
  SamplingOptions sampling;
  /// Chain construction knobs for the Regular and Extended Regular
  /// sessions, batch Run() included: kernel budgets and step mode.
  ChainOptions chain;
  /// Fall back to sampling when an exact engine rejects the query (unsafe
  /// queries, or safe queries outside the implemented algebra). When false,
  /// such queries return an error Status instead.
  bool allow_sampling_fallback = true;
};

/// \brief Result of evaluating a query over the whole database.
struct QueryAnswer {
  /// mu(q@t) for t = 1..horizon (index 0 unused).
  std::vector<double> probs;
  EngineKind engine = EngineKind::kRegular;
  QueryClass query_class = QueryClass::kRegular;
  /// False when the sampling engine produced the (epsilon, delta) estimate.
  bool exact = true;
};

/// \brief Facade over the four engines, batch and standing queries alike.
class Lahar {
 public:
  /// The database is non-const because parsing interns new symbols through
  /// its interner; stream contents are never modified.
  explicit Lahar(EventDatabase* db, LaharOptions options = {})
      : db_(db), options_(options) {}

  /// Parses and analyzes a query without running it.
  Result<PreparedQuery> Prepare(std::string_view text) const;

  /// Parses, routes, and evaluates a query text.
  Result<QueryAnswer> Run(std::string_view text) const;

  /// Evaluates an already-prepared query: opens the session OpenSession
  /// would return and runs it to the database horizon (see
  /// QuerySession::RunToHorizon). Rejections are OpenSession's, payload
  /// included.
  Result<QueryAnswer> Run(const PreparedQuery& prepared) const;

  /// Opens an incremental standing-query session for `text`, routed to the
  /// cheapest engine able to serve it (see engine/session.h). Every query
  /// class is servable; with allow_sampling_fallback disabled, Safe queries
  /// without a compilable plan and Unsafe queries are rejected with the
  /// class in the kQueryClassPayload payload.
  Result<std::unique_ptr<QuerySession>> OpenSession(
      std::string_view text) const;
  Result<std::unique_ptr<QuerySession>> OpenSession(
      const PreparedQuery& prepared) const;

  const EventDatabase& db() const { return *db_; }

 private:
  EventDatabase* db_;
  LaharOptions options_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_LAHAR_H_
