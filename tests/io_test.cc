#include <gtest/gtest.h>

#include <sstream>

#include "engine/lahar.h"
#include "model/io.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;

std::unique_ptr<EventDatabase> RoundTrip(const EventDatabase& db) {
  std::stringstream ss;
  EXPECT_OK(WriteDatabase(db, &ss));
  auto read = ReadDatabase(&ss);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return read.ok() ? std::move(*read) : nullptr;
}

TEST(IoTest, RoundTripsIndependentStreams) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h1"}, {"h2"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.25}, {"b", 0.5}}, {{"a", 1.0}}, {}});
  auto copy = RoundTrip(db);
  ASSERT_NE(copy, nullptr);
  ASSERT_EQ(copy->num_streams(), 1u);
  EXPECT_EQ(copy->horizon(), 3u);
  const Stream& s = copy->stream(0);
  EXPECT_FALSE(s.markovian());
  EXPECT_EQ(s.key()[0], copy->Sym("Joe"));
  EXPECT_NEAR(s.ProbAt(1, s.LookupTuple({copy->Sym("a")})), 0.25, 1e-12);
  EXPECT_NEAR(s.ProbAt(1, kBottom), 0.25, 1e-12);
  EXPECT_NEAR(s.ProbAt(3, kBottom), 1.0, 1e-12);
  const Relation* hall = copy->FindRelation(copy->interner().Intern("Hall"));
  ASSERT_NE(hall, nullptr);
  EXPECT_TRUE(hall->Contains({copy->Sym("h2")}));
}

TEST(IoTest, RoundTripsMarkovianStreams) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Sue", {"room", "hall"}, 4, 0.85);
  auto copy = RoundTrip(db);
  ASSERT_NE(copy, nullptr);
  const Stream& orig = db.stream(0);
  const Stream& s = copy->stream(0);
  ASSERT_TRUE(s.markovian());
  for (Timestamp t = 1; t <= 4; ++t) {
    for (DomainIndex d = 0; d < s.domain_size(); ++d) {
      EXPECT_NEAR(s.ProbAt(t, d), orig.ProbAt(t, d), 1e-12);
    }
  }
  for (Timestamp t = 1; t < 4; ++t) {
    // The text form keeps exactly the stored (nonzero) transitions.
    const CptView got = s.CptAt(t);
    const CptView want = orig.CptAt(t);
    EXPECT_EQ(got.nonzeros(), want.nonzeros());
    for (size_t r = 0; r < want.rows(); ++r) {
      for (const CptEntry e : want.Row(r)) {
        EXPECT_NEAR(got.At(r, e.col), e.p, 1e-12);
      }
    }
  }
}

TEST(IoTest, QueriesGiveSameAnswersAfterRoundTrip) {
  EventDatabase db;
  AddRelation(&db, "Good", {{"a"}});
  AddIndependentStream(&db, "R", "k", {{{"a", 0.4}, {"b", 0.3}}, {{"b", 0.6}}});
  auto copy = RoundTrip(db);
  ASSERT_NE(copy, nullptr);
  const std::string query = "R('k', x : Good(x)); R('k', y : y = 'b')";
  Lahar l1(&db), l2(copy.get());
  auto a1 = l1.Run(query);
  auto a2 = l2.Run(query);
  ASSERT_OK(a1.status());
  ASSERT_OK(a2.status());
  ASSERT_EQ(a1->probs.size(), a2->probs.size());
  for (size_t t = 1; t < a1->probs.size(); ++t) {
    EXPECT_NEAR(a1->probs[t], a2->probs[t], 1e-12);
  }
}

TEST(IoTest, IntegerValuesSurvive) {
  EventDatabase db;
  lahar::testing::DeclareUnarySchema(&db, "Tick");
  Stream s(db.interner().Intern("Tick"), {db.Sym("sym")}, 1, 1, false);
  s.InternTuple({Value::Int(42)});
  ASSERT_OK(s.SetMarginal(1, {0.5, 0.5}));
  ASSERT_TRUE(db.AddStream(std::move(s)).ok());
  auto copy = RoundTrip(db);
  ASSERT_NE(copy, nullptr);
  const Stream& c = copy->stream(0);
  EXPECT_NE(c.LookupTuple({Value::Int(42)}), Stream::kNotFound);
  EXPECT_NEAR(c.ProbAt(1, c.LookupTuple({Value::Int(42)})), 0.5, 1e-12);
}

TEST(IoTest, RejectsMalformedInput) {
  const char* cases[] = {
      "",                                     // no header
      "nonsense 1\n",                         // bad header
      "lahar-db 2\n",                         // bad version
      "lahar-db 1\nbogus directive\n",        // unknown directive
      "lahar-db 1\nkey Joe\n",                // key outside stream
      "lahar-db 1\nrel Hall h1\n",            // rel before relation
      "lahar-db 1\nstream At independent 1\nkey Joe\ndomain a\n"
      "marginal 1 9:1.0\n",                   // index out of range
      "lahar-db 1\nstream At independent 1\nkey Joe\ndomain a\n"
      "marginal 1 1:1.0\n",                   // stream before schema
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    auto db = ReadDatabase(&ss);
    EXPECT_FALSE(db.ok()) << "should reject: " << text;
  }
}

TEST(IoTest, FileHelpersReportMissingPaths) {
  EXPECT_FALSE(ReadDatabaseFromFile("/no/such/file.db").ok());
  EventDatabase db;
  EXPECT_FALSE(WriteDatabaseToFile(db, "/no/such/dir/out.db").ok());
}

}  // namespace
}  // namespace lahar
