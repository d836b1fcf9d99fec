#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include "common/file.h"
#include "common/interner.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"

namespace lahar {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllConstructorsSetCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::UnsafeQuery("x").code(), StatusCode::kUnsafeQuery);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  LAHAR_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

TEST(InternerTest, EmptyStringIsIdZero) {
  Interner in;
  EXPECT_EQ(in.Intern(""), 0u);
}

TEST(InternerTest, InternIsIdempotentAndDense) {
  Interner in;
  SymbolId a = in.Intern("alpha");
  SymbolId b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.Name(a), "alpha");
  EXPECT_EQ(in.Name(b), "beta");
  EXPECT_EQ(in.size(), 3u);  // "", alpha, beta
}

TEST(InternerTest, LookupDoesNotIntern) {
  Interner in;
  EXPECT_EQ(in.Lookup("missing"), Interner::kNotFound);
  EXPECT_EQ(in.size(), 1u);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(3);
  std::vector<double> w = {0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[rng.Categorical(w)]++;
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.6, 0.02);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.3, 0.02);
}

TEST(RngTest, CategoricalAllZeroReturnsSize) {
  Rng rng(4);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(w), w.size());
}

TEST(RngTest, CategoricalReadsARowInPlace) {
  // The pointer form draws from a slice of a larger buffer (a CPT row)
  // exactly as the vector form draws from a copy of it.
  const std::vector<double> buffer = {9.0, 0.2, 0.0, 0.5, 0.3, 9.0};
  const std::vector<double> row(buffer.begin() + 1, buffer.end() - 1);
  Rng a(21), b(21);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Categorical(buffer.data() + 1, row.size()),
              b.Categorical(row));
  }
  EXPECT_EQ(a.Categorical(buffer.data(), 0), 0u);  // empty: nothing drawn
  EXPECT_EQ(a.Next(), b.Next());
}

// Random non-negative weights with runs of zeros, including at either end.
std::vector<double> WeightsWithZeroRuns(Rng* gen) {
  std::vector<double> w(1 + gen->Below(40), 0.0);
  for (size_t i = 0; i < w.size();) {
    const size_t run = 1 + gen->Below(5);
    const bool zero = gen->Bernoulli(0.5);
    for (size_t k = 0; k < run && i < w.size(); ++k, ++i) {
      w[i] = zero ? 0.0 : gen->Uniform() * 3.0;
    }
  }
  return w;
}

// The sparse forms the running-sum and sparse-row draws read: nonzero
// indices, the running sums through them added in index order, and the
// nonzero weights themselves (a CSR row).
void RunningSums(const std::vector<double>& w, std::vector<uint32_t>* cols,
                 std::vector<double>* sums, std::vector<double>* nonzeros) {
  double acc = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] == 0) continue;
    acc += w[i];
    cols->push_back(static_cast<uint32_t>(i));
    sums->push_back(acc);
    nonzeros->push_back(w[i]);
  }
}

TEST(RngTest, SparseCategoricalMatchesCategorical) {
  Rng gen(11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<double> w = WeightsWithZeroRuns(&gen);
    std::vector<uint32_t> cols;
    std::vector<double> sums, nonzeros;
    RunningSums(w, &cols, &sums, &nonzeros);
    Rng dense(trial), sparse(trial), row(trial);
    for (int d = 0; d < 50; ++d) {
      const size_t expect = dense.Categorical(w);
      ASSERT_EQ(sparse.SparseCategorical(cols.data(), sums.data(),
                                         cols.size(), w.size()),
                expect)
          << "trial " << trial << " draw " << d;
      ASSERT_EQ(row.Categorical(cols.data(), nonzeros.data(), cols.size(),
                                w.size()),
                expect)
          << "trial " << trial << " draw " << d;
    }
    const uint64_t next = dense.Next();
    EXPECT_EQ(sparse.Next(), next);
    EXPECT_EQ(row.Next(), next);
  }
}

TEST(RngTest, GuideTableMatchesCategorical) {
  Rng gen(12);
  GuideTable table;  // reused across sizes, as the particle filter does
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<double> w = WeightsWithZeroRuns(&gen);
    Rng dense(trial), guided(trial);
    const double total = table.Reset(w);
    EXPECT_EQ(total, Sum(w));
    for (size_t d = 0; d < 2 * w.size() + 10; ++d) {
      ASSERT_EQ(table.Draw(&guided), dense.Categorical(w))
          << "trial " << trial << " draw " << d;
    }
    EXPECT_EQ(guided.Next(), dense.Next());
  }
}

TEST(RngTest, RunningSumDrawsOfAllZeroWeightsConsumeNothing) {
  const std::vector<double> w(6, 0.0);
  Rng untouched(4), sparse(4), guided(4), dense(4), row(4);
  EXPECT_EQ(sparse.SparseCategorical(nullptr, nullptr, 0, w.size()), w.size());
  EXPECT_EQ(row.Categorical(nullptr, nullptr, 0, w.size()), w.size());
  GuideTable table;
  EXPECT_EQ(table.Reset(w), 0.0);
  EXPECT_EQ(table.Draw(&guided), w.size());
  EXPECT_EQ(table.Reset({}), 0.0);
  EXPECT_EQ(table.Draw(&guided), 0u);
  EXPECT_EQ(dense.Categorical(w), w.size());
  const uint64_t next = untouched.Next();
  EXPECT_EQ(sparse.Next(), next);
  EXPECT_EQ(guided.Next(), next);
  EXPECT_EQ(dense.Next(), next);
  EXPECT_EQ(row.Next(), next);
}

TEST(RngTest, RunningSumDrawsFallBackToDenseLastIndex) {
  // A non-finite total never satisfies u < sum; Categorical then returns the
  // dense last index, not the last nonzero one, and so must the others.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const std::vector<double> w = {0.0, 0.5, bad, 0.0, 0.0};
    std::vector<uint32_t> cols;
    std::vector<double> sums, nonzeros;
    RunningSums(w, &cols, &sums, &nonzeros);
    GuideTable table;
    table.Reset(w);
    Rng dense(8), sparse(8), guided(8), row(8);
    for (int d = 0; d < 20; ++d) {
      const size_t expect = dense.Categorical(w);
      EXPECT_EQ(sparse.SparseCategorical(cols.data(), sums.data(),
                                         cols.size(), w.size()),
                expect);
      EXPECT_EQ(table.Draw(&guided), expect);
      EXPECT_EQ(row.Categorical(cols.data(), nonzeros.data(), cols.size(),
                                w.size()),
                expect);
    }
    const uint64_t next = dense.Next();
    EXPECT_EQ(sparse.Next(), next);
    EXPECT_EQ(guided.Next(), next);
    EXPECT_EQ(row.Next(), next);
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.Split();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(SerialTest, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(serial::Crc32(""), 0u);
  EXPECT_EQ(serial::Crc32("123456789"), 0xCBF43926u);  // CRC-32/ISO-HDLC
}

TEST(MatrixTest, MultiplyIdentity) {
  Matrix id(2, 2);
  id.At(0, 0) = id.At(1, 1) = 1.0;
  Matrix m(2, 2);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(1, 0) = 3;
  m.At(1, 1) = 4;
  Matrix r = m.Multiply(id);
  EXPECT_DOUBLE_EQ(r.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r.At(1, 0), 3.0);
}

TEST(MatrixTest, LeftMultiplyIsRowVectorTimesMatrix) {
  Matrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 2) = 2;
  m.At(1, 1) = 3;
  std::vector<double> v = {2.0, 5.0};
  std::vector<double> r = m.LeftMultiply(v);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 15.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
}

TEST(MatrixTest, LeftMultiplyIntoMatchesLeftMultiply) {
  Matrix m(3, 2);
  m.At(0, 0) = 0.5;
  m.At(0, 1) = 0.5;
  m.At(1, 0) = 0.25;
  m.At(2, 1) = 1.0;
  std::vector<double> v = {0.1, 0.7, 0.2};
  std::vector<double> expected = m.LeftMultiply(v);
  std::vector<double> out;
  m.LeftMultiplyInto(v, &out);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(MatrixTest, LeftMultiplyIntoReusesAndOverwritesOutput) {
  Matrix m(2, 2);
  m.At(0, 0) = 1;
  m.At(1, 1) = 2;
  std::vector<double> v = {3.0, 4.0};
  std::vector<double> out = {9.0, 9.0, 9.0};  // stale, larger than cols()
  m.LeftMultiplyInto(v, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 8.0);
}

TEST(MatrixTest, NormalizeRows) {
  Matrix m(2, 2);
  m.At(0, 0) = 2;
  m.At(0, 1) = 2;
  // Row 1 stays all-zero.
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(MatrixTest, SumAndNormalizeVector) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(Sum(v), 4.0);
  Normalize(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

// --- WriteFileAtomic / ReadFile ---------------------------------------------

// A fresh, empty directory per test under the gtest temp dir.
class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("lahar_atomic_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::set<std::string> Entries() const {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      names.insert(e.path().filename().string());
    }
    return names;
  }

  std::filesystem::path dir_;
};

TEST_F(AtomicFileTest, RoundTripsBytes) {
  const std::string path = (dir_ / "ckpt").string();
  const std::string bytes("snap\0shot\xff", 10);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
}

TEST_F(AtomicFileTest, ShorterRewriteLeavesNoStaleTail) {
  const std::string path = (dir_ / "ckpt").string();
  ASSERT_TRUE(WriteFileAtomic(path, std::string(4096, 'a')).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "bb").ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "bb");
}

TEST_F(AtomicFileTest, MissingParentDirectoryFailsAndCreatesNothing) {
  const std::filesystem::path missing = dir_ / "no_such_dir";
  Status s = WriteFileAtomic((missing / "ckpt").string(), "bytes");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(std::filesystem::exists(missing));
  EXPECT_TRUE(Entries().empty());
}

TEST_F(AtomicFileTest, NoTempFileRemainsAfterSuccess) {
  const std::string path = (dir_ / "ckpt").string();
  ASSERT_TRUE(WriteFileAtomic(path, "one").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "two").ok());
  EXPECT_EQ(Entries(), std::set<std::string>{"ckpt"});
}

TEST_F(AtomicFileTest, ReadingAMissingFileIsNotFound) {
  auto back = ReadFile((dir_ / "absent").string());
  EXPECT_EQ(back.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lahar
