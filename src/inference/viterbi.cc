#include "inference/viterbi.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lahar {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double SafeLog(double p) { return p > 0 ? std::log(p) : kNegInf; }

}  // namespace

std::vector<DomainIndex> MlePath(const Stream& stream) {
  std::vector<DomainIndex> path(stream.horizon() + 1, kBottom);
  for (Timestamp t = 1; t <= stream.horizon(); ++t) {
    const auto& m = stream.MarginalAt(t);
    double best = -1;
    for (DomainIndex d = 0; d < m.size(); ++d) {
      if (m[d] > best) {
        best = m[d];
        path[t] = d;
      }
    }
  }
  return path;
}

std::vector<DomainIndex> ViterbiPath(const Stream& stream) {
  if (!stream.markovian() || stream.horizon() == 0) return MlePath(stream);
  const Timestamp T = stream.horizon();
  const size_t D = stream.domain_size();

  // delta[d] = best log-probability of a trajectory ending in d at time t.
  std::vector<double> delta(D, kNegInf);
  const auto& init = stream.MarginalAt(1);
  for (size_t d = 0; d < D && d < init.size(); ++d) {
    delta[d] = SafeLog(init[d]);
  }
  // back[t][d] = argmax predecessor of d at time t.
  std::vector<std::vector<DomainIndex>> back(T + 1,
                                             std::vector<DomainIndex>(D, 0));
  std::vector<double> next(D, kNegInf);
  for (Timestamp t = 2; t <= T; ++t) {
    const CptView cpt = stream.CptAt(t - 1);
    std::fill(next.begin(), next.end(), kNegInf);
    for (size_t d = 0; d < D; ++d) {
      if (delta[d] == kNegInf) continue;
      // Unstored entries give SafeLog(0) = -inf, which never beats `next`.
      for (const CptEntry e : cpt.Row(d)) {
        double cand = delta[d] + SafeLog(e.p);
        if (cand > next[e.col]) {
          next[e.col] = cand;
          back[t][e.col] = static_cast<DomainIndex>(d);
        }
      }
    }
    delta.swap(next);  // next is refilled at the top of the loop
  }

  std::vector<DomainIndex> path(T + 1, kBottom);
  DomainIndex best = 0;
  for (size_t d = 1; d < D; ++d) {
    if (delta[d] > delta[best]) best = static_cast<DomainIndex>(d);
  }
  path[T] = best;
  for (Timestamp t = T; t > 1; --t) {
    path[t - 1] = back[t][path[t]];
  }
  return path;
}

}  // namespace lahar
