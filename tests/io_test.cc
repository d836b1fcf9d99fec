#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/serial.h"
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

// A Markov stream At('Sue') over {a, b} with horizon 4 whose cpt lines
// appear in `cpt_order`, with `extra` appended after the last cpt line.
// Line 4 is a second, different table for tick 3.
std::string MarkovText(const std::vector<int>& cpt_order,
                       const std::string& extra = "") {
  const char* cpts[] = {"", "cpt 1 0:0:1 1:1:0.5 1:2:0.5 2:2:1\n",
                        "cpt 2 0:1:0.25 0:0:0.75 1:1:1 2:0:1\n",
                        "cpt 3 0:0:1 1:2:1 2:1:1\n",
                        "cpt 3 0:0:1 1:1:1 2:2:1\n"};
  std::string text =
      "lahar-db 1\nschema At 1 tag location\n"
      "stream At markov 4\nkey Sue\ndomain a b\ninitial 0:0.5 1:0.5\n";
  for (int t : cpt_order) text += cpts[t];
  return text + extra;
}

// The binary snapshot of the database `text` parses to (checkpoints write
// it); empty when the text is refused.
std::string SnapshotOf(const std::string& text) {
  std::stringstream ss(text);
  auto db = ReadDatabase(&ss);
  if (!db.ok()) return "";
  serial::Writer w;
  if (!(*db)->SaveTo(&w).ok()) return "";
  return w.str();
}

TEST(IoTest, CptLinesOutOfTickOrderReadAsInOrder) {
  const std::string in_order = SnapshotOf(MarkovText({1, 2, 3}));
  ASSERT_FALSE(in_order.empty());
  EXPECT_EQ(SnapshotOf(MarkovText({3, 1, 2})), in_order);
  EXPECT_EQ(SnapshotOf(MarkovText({2, 3, 1})), in_order);
  // A repeated tick keeps its last line; a missing tick is refused.
  EXPECT_EQ(SnapshotOf(MarkovText({4, 2, 1, 3})), in_order);
  const std::string other = SnapshotOf(MarkovText({3, 2, 1, 4}));
  EXPECT_FALSE(other.empty());
  EXPECT_NE(other, in_order);
  EXPECT_EQ(SnapshotOf(MarkovText({1, 3})), "");
}

TEST(IoTest, DomainLineAfterCptLineIsCheckedAgainstTheFinalDomain) {
  const std::string plain = SnapshotOf(MarkovText({1, 2, 3}));
  ASSERT_FALSE(plain.empty());
  // An empty domain line adds nothing; the cpt lines still fit.
  EXPECT_EQ(SnapshotOf(MarkovText({1, 2, 3}, "domain\n")), plain);
  // A new value after the cpt lines leaves them narrower than the domain.
  EXPECT_EQ(SnapshotOf(MarkovText({1, 2, 3}, "domain c\n")), "");
}

TEST(IoTest, StreamEndingWithCptLineKeepsIt) {
  // The last line of the first stream, and of the file, is a cpt line.
  const std::string two = MarkovText(
      {1, 2, 3},
      "stream At markov 2\nkey Joe\ndomain a\ninitial 1:1\n"
      "cpt 1 0:0:1 1:0:0.5 1:1:0.5\n");
  std::stringstream ss(two);
  auto db = ReadDatabase(&ss);
  ASSERT_OK(db.status());
  ASSERT_EQ((*db)->num_streams(), 2u);
  EXPECT_EQ((*db)->stream(0).CptAt(3).At(2, 1), 1.0);
  const Stream& joe = (*db)->stream(1);
  EXPECT_EQ(joe.CptAt(1).At(1, 0), 0.5);
  EXPECT_EQ(joe.ProbAt(2, kBottom), 0.5);
  // Without its last cpt line the stream is incomplete and refused.
  EXPECT_EQ(SnapshotOf(MarkovText({1, 2})), "");
}

// Lines of the other stream kind are refused with their line number, not
// parsed and dropped.
TEST(IoTest, RejectsLinesOfTheOtherStreamKind) {
  const std::string indep =
      "lahar-db 1\nschema At 1 tag location\n"
      "stream At independent 2\nkey Joe\ndomain a\nmarginal 1 1:1\n";
  ASSERT_FALSE(SnapshotOf(indep + "marginal 2 1:1\n").empty());
  struct Case {
    std::string text;
    std::string error;
  };
  const Case cases[] = {
      {indep + "cpt 1 0:0:0.2\nmarginal 2 1:1\n",
       "cpt line inside an independent stream at line 7"},
      {indep + "initial 0:0.5\nmarginal 2 1:1\n",
       "initial line inside an independent stream at line 7"},
      {MarkovText({1, 2}, "marginal 7 1:1\n") + "cpt 3 0:0:1 1:2:1 2:1:1\n",
       "marginal line inside a markov stream at line 9"},
  };
  for (const Case& c : cases) {
    std::stringstream ss(c.text);
    auto db = ReadDatabase(&ss);
    ASSERT_FALSE(db.ok()) << "should reject: " << c.text;
    EXPECT_NE(db.status().ToString().find(c.error), std::string::npos)
        << db.status().ToString();
  }
}

TEST(IoTest, FileHelpersReportMissingPaths) {
  EXPECT_FALSE(ReadDatabaseFromFile("/no/such/file.db").ok());
  EventDatabase db;
  EXPECT_FALSE(WriteDatabaseToFile(db, "/no/such/dir/out.db").ok());
}

}  // namespace
}  // namespace lahar
