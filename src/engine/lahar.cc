#include "engine/lahar.h"

namespace lahar {

Result<PreparedQuery> Lahar::Prepare(std::string_view text) const {
  return PrepareQuery(text, db_);
}

Result<QueryAnswer> Lahar::Run(std::string_view text) const {
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(text));
  return Run(prepared);
}

Result<std::unique_ptr<QuerySession>> Lahar::OpenSession(
    std::string_view text) const {
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(text));
  return CreateQuerySession(db_, prepared, options_);
}

Result<std::unique_ptr<QuerySession>> Lahar::OpenSession(
    const PreparedQuery& prepared) const {
  return CreateQuerySession(db_, prepared, options_);
}

Result<QueryAnswer> Lahar::Run(const PreparedQuery& prepared) const {
  LAHAR_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                         CreateQuerySession(db_, prepared, options_));
  QueryAnswer answer;
  LAHAR_ASSIGN_OR_RETURN(answer.probs, session->RunToHorizon(db_->horizon()));
  answer.engine = session->engine_kind();
  answer.query_class = session->query_class();
  answer.exact = session->exact();
  return answer;
}

}  // namespace lahar
