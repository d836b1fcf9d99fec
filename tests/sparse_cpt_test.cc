// Sparse CPT storage against a dense oracle. Random Markovian streams are
// fed through the public (dense) append path, and the same data is kept
// here as dense Matrix slices. Every reader of the CSR slices must give
// exactly what a dense walk over the oracle gives: row walks and At, the
// chained marginals, the sampler's draws, Viterbi paths, trajectory
// probabilities, and the snapshot bytes.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "engine/lahar.h"
#include "engine/sampling_engine.h"
#include "inference/viterbi.h"
#include "test_util.h"

namespace lahar {
namespace {

using lahar::testing::DeclareUnarySchema;

// What the stream should hold, kept dense: cpts[t] governs t -> t+1
// (index 0 unused), each at the domain size it was appended with.
struct DenseStream {
  std::vector<double> initial;
  std::vector<Matrix> cpts;
};

double DenseAt(const Matrix& m, size_t r, size_t c) {
  return r < m.rows() && c < m.cols() ? m.At(r, c) : 0.0;
}

// A random row-stochastic D x D table. Each row keeps 1..4 successors.
// With `extras`, some rows also carry a -0.0 (which is not stored) or a
// tiny in-tolerance negative entry (which is).
Matrix RandomCpt(size_t D, Rng* rng, bool extras) {
  Matrix m(D, D, 0.0);
  for (size_t r = 0; r < D; ++r) {
    const size_t k = 1 + rng->Below(std::min<size_t>(D, 4));
    std::vector<size_t> cols;
    while (cols.size() < k) {
      const size_t c = rng->Below(D);
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    double total = 0;
    for (size_t c : cols) total += (m.At(r, c) = 0.05 + rng->Uniform());
    for (size_t c : cols) m.At(r, c) /= total;
    if (!extras || k == D) continue;
    size_t zero = 0;
    while (m.At(r, zero) != 0.0) ++zero;
    if (r % 3 == 1) m.At(r, zero) = -0.0;
    if (r % 3 == 2) {
      m.At(r, zero) = -5e-10;
      m.At(r, cols[0]) += 5e-10;
    }
  }
  return m;
}

// PruneCpts' pruning pass over a dense slice (its entry counters left out),
// the oracle for the sparse slices it rebuilds.
void DensePrune(Matrix* cpt, double epsilon) {
  for (size_t r = 0; r < cpt->rows(); ++r) {
    double kept = 0;
    size_t argmax = 0;
    for (size_t c = 0; c < cpt->cols(); ++c) {
      double p = cpt->At(r, c);
      if (p > cpt->At(r, argmax)) argmax = c;
      if (p < epsilon) {
        cpt->At(r, c) = 0.0;
      } else {
        kept += p;
      }
    }
    if (kept <= 0) {
      cpt->At(r, argmax) = 1.0;
    } else {
      for (size_t c = 0; c < cpt->cols(); ++c) cpt->At(r, c) /= kept;
    }
  }
}

// Dense chaining: marginal t+1 = marginal t (zero-padded) x CPT t.
std::vector<std::vector<double>> DenseMarginals(const DenseStream& d) {
  std::vector<std::vector<double>> m(d.cpts.size() + 1);
  m[1] = d.initial;
  for (size_t t = 1; t < d.cpts.size(); ++t) {
    std::vector<double> v = m[t];
    v.resize(d.cpts[t].rows(), 0.0);
    m[t + 1] = d.cpts[t].LeftMultiply(v);
  }
  return m;
}

// ViterbiPath's recursion over dense slices (zero beyond a slice's dims).
std::vector<DomainIndex> DenseViterbi(const DenseStream& d, size_t D) {
  const double kNegInf = -std::numeric_limits<double>::infinity();
  auto safe_log = [&](double p) { return p > 0 ? std::log(p) : kNegInf; };
  const Timestamp T = static_cast<Timestamp>(d.cpts.size());
  std::vector<double> delta(D, kNegInf), next(D);
  for (size_t x = 0; x < D && x < d.initial.size(); ++x) {
    delta[x] = safe_log(d.initial[x]);
  }
  std::vector<std::vector<DomainIndex>> back(T + 1,
                                             std::vector<DomainIndex>(D, 0));
  for (Timestamp t = 2; t <= T; ++t) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (size_t x = 0; x < D; ++x) {
      if (delta[x] == kNegInf) continue;
      for (size_t y = 0; y < D; ++y) {
        double cand = delta[x] + safe_log(DenseAt(d.cpts[t - 1], x, y));
        if (cand > next[y]) {
          next[y] = cand;
          back[t][y] = static_cast<DomainIndex>(x);
        }
      }
    }
    delta.swap(next);
  }
  std::vector<DomainIndex> path(T + 1, kBottom);
  DomainIndex best = 0;
  for (size_t x = 1; x < D; ++x) {
    if (delta[x] > delta[best]) best = static_cast<DomainIndex>(x);
  }
  path[T] = best;
  for (Timestamp t = T; t > 1; --t) path[t - 1] = back[t][path[t]];
  return path;
}

// The snapshot a dense store would write: Stream::SaveTo's format, with
// every slice written entry by entry. A -0.0 entry is not stored, so it
// saves as +0.0.
std::string DenseSnapshot(const Stream& s, const DenseStream& d) {
  serial::Writer w;
  w.U32(s.type());
  WriteValueTuple(s.key(), &w);
  w.U64(s.num_value_attrs());
  w.U32(s.horizon());
  w.U8(1);
  w.U64(s.domain_size() - 1);
  for (DomainIndex x = 1; x < s.domain_size(); ++x) {
    WriteValueTuple(s.TupleOf(x), &w);
  }
  const std::vector<std::vector<double>> m = DenseMarginals(d);
  for (Timestamp t = 1; t <= s.horizon(); ++t) {
    w.U8(1);
    w.DoubleVec(m[t]);
  }
  w.U64(d.cpts.size());
  for (const Matrix& cpt : d.cpts) {
    w.U64(cpt.rows());
    w.U64(cpt.cols());
    for (size_t r = 0; r < cpt.rows(); ++r) {
      for (size_t c = 0; c < cpt.cols(); ++c) {
        w.F64(cpt.At(r, c) == 0.0 ? 0.0 : cpt.At(r, c));
      }
    }
  }
  return w.str();
}

struct Fixture {
  EventDatabase db;
  std::vector<StreamId> ids;
  std::vector<DenseStream> dense;
};

// Three append-built streams over 2..6 values; stream 1 gains a value
// mid-stream, and with `prune` every stream is pruned afterwards.
void Build(uint64_t seed, Timestamp horizon, bool prune, Fixture* f) {
  Rng rng(seed);
  DeclareUnarySchema(&f->db, "At");
  for (size_t k = 0; k < 3; ++k) {
    Stream empty(f->db.interner().Intern("At"),
                 {f->db.Sym("k" + std::to_string(k))}, 1, 0,
                 /*markovian=*/true);
    const size_t values = 2 + rng.Below(5);
    for (size_t v = 1; v <= values; ++v) {
      empty.InternTuple({f->db.Sym("v" + std::to_string(v))});
    }
    auto id = f->db.AddStream(std::move(empty));
    ASSERT_OK(id.status());
    f->ids.push_back(*id);
    DenseStream d;
    const size_t D = values + 1;
    d.initial.assign(D, 0.0);
    for (size_t x = 1; x < D; ++x) d.initial[x] = 1.0 / values;
    d.cpts.emplace_back();  // slot 0: the append path's placeholder
    ASSERT_OK(f->db.AppendInitial(*id, d.initial));
    const Timestamp grow_at = 2 + static_cast<Timestamp>(rng.Below(horizon - 3));
    for (Timestamp t = 2; t <= horizon; ++t) {
      Stream& s = f->db.stream(*id);
      if (k == 1 && t == grow_at) {
        s.InternTuple({f->db.Sym("late")});
      }
      Matrix cpt = RandomCpt(s.domain_size(), &rng, /*extras=*/k != 2);
      ASSERT_OK(f->db.AppendMarkovStep(*id, cpt));
      d.cpts.push_back(std::move(cpt));
    }
    if (prune) {
      const double eps = 0.1 + 0.1 * static_cast<double>(k);
      ASSERT_OK(f->db.stream(*id).PruneCpts(eps));
      for (size_t t = 1; t < d.cpts.size(); ++t) DensePrune(&d.cpts[t], eps);
    }
    f->dense.push_back(std::move(d));
  }
}

void ExpectSameAsDense(const Stream& s, const DenseStream& d) {
  ASSERT_EQ(static_cast<size_t>(s.horizon()), d.cpts.size());
  size_t entries = 0;
  for (Timestamp t = 1; t < s.horizon(); ++t) {
    const CptView cpt = s.CptAt(t);
    const Matrix& want = d.cpts[t];
    ASSERT_EQ(cpt.rows(), want.rows());
    ASSERT_EQ(cpt.cols(), want.cols());
    for (size_t r = 0; r <= s.domain_size(); ++r) {
      std::vector<uint32_t> cols;
      std::vector<double> probs;
      for (const CptEntry e : cpt.Row(r)) {
        cols.push_back(e.col);
        probs.push_back(e.p);
      }
      std::vector<uint32_t> want_cols;
      std::vector<double> want_probs;
      for (size_t c = 0; r < want.rows() && c < want.cols(); ++c) {
        if (want.At(r, c) == 0.0) continue;
        want_cols.push_back(static_cast<uint32_t>(c));
        want_probs.push_back(want.At(r, c));
      }
      EXPECT_EQ(cols, want_cols) << "t=" << t << " r=" << r;
      EXPECT_EQ(probs, want_probs) << "t=" << t << " r=" << r;
      entries += cols.size();
      for (size_t c = 0; c <= s.domain_size(); ++c) {
        EXPECT_EQ(cpt.At(r, c), DenseAt(want, r, c));
      }
    }
  }
  EXPECT_EQ(s.cpt_entries(), entries);
  const std::vector<std::vector<double>> m = DenseMarginals(d);
  for (Timestamp t = 1; t <= s.horizon(); ++t) {
    EXPECT_EQ(s.MarginalAt(t), m[t]) << "t=" << t;
  }
}

class SparseCptTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseCptTest, RowWalksAtAndMarginalsMatchDense) {
  for (bool prune : {false, true}) {
    Fixture f;
    Build(GetParam(), 16, prune, &f);
    for (size_t k = 0; k < f.ids.size(); ++k) {
      ExpectSameAsDense(f.db.stream(f.ids[k]), f.dense[k]);
    }
  }
}

TEST_P(SparseCptTest, SamplingEngineDrawsMatchDense) {
  const Timestamp kHorizon = 20;
  const size_t kSamples = 500;  // 10k draws over the horizon
  Fixture f;
  Build(GetParam(), kHorizon, /*prune=*/false, &f);
  const size_t k = GetParam() % f.ids.size();
  const Stream& s = f.db.stream(f.ids[k]);
  const DenseStream& d = f.dense[k];
  Lahar lahar(&f.db);
  auto prepared =
      lahar.Prepare("At('k" + std::to_string(k) + "', l : l = 'v1')");
  ASSERT_OK(prepared.status());
  SamplingOptions options;
  options.num_samples = kSamples;
  options.seed = GetParam();
  auto engine = SamplingEngine::Create(*prepared, f.db, options);
  ASSERT_OK(engine.status());
  auto probs = engine->RunToHorizon(kHorizon);
  ASSERT_OK(probs.status());

  // The dense draw: one Categorical per sample per tick, each sample on
  // its own generator split from the seed, as the engine draws.
  const DomainIndex v1 = s.LookupTuple({f.db.Sym("v1")});
  std::vector<size_t> hits(kHorizon + 1, 0);
  Rng seeder(options.seed);
  for (size_t i = 0; i < kSamples; ++i) {
    Rng rng = seeder.Split();
    std::vector<DomainIndex> traj(kHorizon + 1, kBottom);
    const size_t d0 = rng.Categorical(d.initial);
    traj[1] = d0 >= d.initial.size() ? kBottom : static_cast<DomainIndex>(d0);
    for (Timestamp t = 1; t < kHorizon; ++t) {
      const Matrix& cpt = d.cpts[t];
      const size_t x = rng.Categorical(cpt.Row(traj[t]), cpt.cols());
      traj[t + 1] = x >= cpt.cols() ? kBottom : static_cast<DomainIndex>(x);
    }
    for (Timestamp t = 1; t <= kHorizon; ++t) hits[t] += traj[t] == v1;
    // The trajectory's probability under Eq. (1), dense.
    double p = d.initial[traj[1]];
    for (Timestamp t = 1; t < kHorizon && p > 0; ++t) {
      p *= DenseAt(d.cpts[t], traj[t], traj[t + 1]);
    }
    EXPECT_EQ(s.TrajectoryProb(traj), p) << "sample " << i;
  }
  for (Timestamp t = 1; t <= kHorizon; ++t) {
    EXPECT_EQ((*probs)[t], static_cast<double>(hits[t]) /
                               static_cast<double>(kSamples))
        << "t=" << t;
  }
}

TEST_P(SparseCptTest, ViterbiAndTrajectoryProbMatchDense) {
  for (bool prune : {false, true}) {
    Fixture f;
    Build(GetParam(), 16, prune, &f);
    Rng rng(GetParam() ^ 0x5eed);
    for (size_t k = 0; k < f.ids.size(); ++k) {
      const Stream& s = f.db.stream(f.ids[k]);
      const DenseStream& d = f.dense[k];
      EXPECT_EQ(ViterbiPath(s), DenseViterbi(d, s.domain_size()));
      // Arbitrary trajectories, most of probability zero.
      for (int n = 0; n < 200; ++n) {
        std::vector<DomainIndex> traj(s.horizon() + 1, kBottom);
        for (Timestamp t = 1; t <= s.horizon(); ++t) {
          traj[t] = static_cast<DomainIndex>(rng.Below(s.domain_size()));
        }
        double p = s.ProbAt(1, traj[1]);
        for (Timestamp t = 1; t < s.horizon() && p > 0; ++t) {
          p *= DenseAt(d.cpts[t], traj[t], traj[t + 1]);
        }
        EXPECT_EQ(s.TrajectoryProb(traj), p);
      }
    }
  }
}

TEST_P(SparseCptTest, SnapshotBytesMatchDenseEncoder) {
  for (bool prune : {false, true}) {
    Fixture f;
    Build(GetParam(), 16, prune, &f);
    for (size_t k = 0; k < f.ids.size(); ++k) {
      const Stream& s = f.db.stream(f.ids[k]);
      serial::Writer w;
      s.SaveTo(&w);
      EXPECT_EQ(w.str(), DenseSnapshot(s, f.dense[k]));
      // Loading re-sparsifies to the same slices and the same bytes.
      serial::Reader r(w.str());
      auto loaded = Stream::LoadFrom(&r);
      ASSERT_OK(loaded.status());
      ExpectSameAsDense(*loaded, f.dense[k]);
      EXPECT_EQ(loaded->cpt_bytes(), s.cpt_bytes());
      serial::Writer again;
      loaded->SaveTo(&again);
      EXPECT_EQ(again.str(), w.str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseCptTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SparseCptTest, OneEntryRowsAndStorageFootprint) {
  // A permutation CPT: one stored entry per row.
  EventDatabase db;
  DeclareUnarySchema(&db, "At");
  Stream s(db.interner().Intern("At"), {db.Sym("k")}, 1, 3, true);
  for (const char* v : {"a", "b", "c"}) s.InternTuple({db.Sym(v)});
  ASSERT_OK(s.SetInitial({0.0, 0.2, 0.3, 0.5}));
  Matrix cpt(4, 4, 0.0);
  cpt.At(0, 0) = cpt.At(1, 2) = cpt.At(2, 3) = cpt.At(3, 1) = 1.0;
  ASSERT_OK(s.SetCpt(1, cpt));
  ASSERT_OK(s.SetCpt(2, cpt));
  ASSERT_OK(s.FinalizeMarkov());
  EXPECT_EQ(s.cpt_entries(), 8u);
  const CptView view = s.CptAt(1);
  EXPECT_EQ(view.nonzeros(), 4u);
  for (size_t r = 0; r < 4; ++r) EXPECT_EQ(view.Row(r).size(), 1u);
  EXPECT_EQ(s.MarginalAt(2), (std::vector<double>{0.0, 0.5, 0.2, 0.3}));
  // Three slots (slot 0 unused); each set slice adds 5 row offsets, 4
  // columns and 4 probabilities.
  EXPECT_EQ(s.cpt_bytes(), 3 * sizeof(CptSlice) + 2 * (5 * 4 + 4 * 4 + 4 * 8));
  // Dense round trip through the TickBatch form.
  const Matrix back = view.ToDense();
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(back.At(r, c), cpt.At(r, c));
  }
}

}  // namespace
}  // namespace lahar
