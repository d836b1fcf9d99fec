#include "inference/hmm.h"

#include <cmath>
#include <limits>

namespace lahar {

Result<DiscreteHmm> DiscreteHmm::Create(std::vector<double> prior,
                                        Matrix transition) {
  if (prior.empty()) return Status::InvalidArgument("empty prior");
  if (transition.rows() != prior.size() ||
      transition.cols() != prior.size()) {
    return Status::InvalidArgument("transition shape mismatch");
  }
  auto valid = [](double p) { return std::isfinite(p) && p >= 0; };
  for (size_t s = 0; s < prior.size(); ++s) {
    if (!valid(prior[s])) {
      return Status::InvalidArgument("prior entry " + std::to_string(s) +
                                     " is negative or not finite");
    }
  }
  double total = Sum(prior);
  if (std::fabs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument("prior does not sum to 1");
  }
  for (size_t r = 0; r < transition.rows(); ++r) {
    double row = 0;
    for (size_t c = 0; c < transition.cols(); ++c) {
      if (!valid(transition.At(r, c))) {
        return Status::InvalidArgument(
            "transition entry (" + std::to_string(r) + ", " +
            std::to_string(c) + ") is negative or not finite");
      }
      row += transition.At(r, c);
    }
    if (std::fabs(row - 1.0) > 1e-6) {
      return Status::InvalidArgument("transition row " + std::to_string(r) +
                                     " does not sum to 1");
    }
  }
  DiscreteHmm hmm;
  hmm.prior_ = std::move(prior);
  hmm.transition_ = std::move(transition);
  const size_t N = hmm.num_states();
  hmm.succ_begin_.reserve(N + 1);
  hmm.succ_begin_.push_back(0);
  for (size_t r = 0; r < N; ++r) {
    const double* row = hmm.transition_.Row(r);
    double acc = 0;
    for (size_t c = 0; c < N; ++c) {
      if (row[c] == 0) continue;
      acc += row[c];
      hmm.succ_cols_.push_back(static_cast<uint32_t>(c));
      hmm.succ_sums_.push_back(acc);
    }
    hmm.succ_begin_.push_back(hmm.succ_cols_.size());
  }
  return hmm;
}

Status DiscreteHmm::CheckLikelihoods(const Likelihoods& likelihoods) const {
  if (likelihoods.empty()) {
    return Status::InvalidArgument("no observations");
  }
  for (const auto& l : likelihoods) {
    if (l.size() != num_states()) {
      return Status::InvalidArgument("likelihood vector size mismatch");
    }
  }
  return Status::OK();
}

Result<std::vector<std::vector<double>>> DiscreteHmm::Filter(
    const Likelihoods& likelihoods) const {
  LAHAR_RETURN_NOT_OK(CheckLikelihoods(likelihoods));
  const size_t T = likelihoods.size();
  const size_t N = num_states();
  std::vector<std::vector<double>> out(T, std::vector<double>(N, 0.0));
  std::vector<double> alpha = prior_;
  std::vector<double> scratch;
  for (size_t t = 0; t < T; ++t) {
    if (t > 0) {
      transition_.LeftMultiplyInto(alpha, &scratch);
      alpha.swap(scratch);
    }
    for (size_t s = 0; s < N; ++s) alpha[s] *= likelihoods[t][s];
    double total = Sum(alpha);
    if (total <= 0) {
      return Status::InvalidArgument(
          "observation at step " + std::to_string(t) +
          " has zero likelihood under the model");
    }
    for (double& a : alpha) a /= total;
    out[t] = alpha;
  }
  return out;
}

Result<DiscreteHmm::Smoothed> DiscreteHmm::Smooth(
    const Likelihoods& likelihoods) const {
  LAHAR_RETURN_NOT_OK(CheckLikelihoods(likelihoods));
  const size_t T = likelihoods.size();
  const size_t N = num_states();

  // Scaled forward pass.
  std::vector<std::vector<double>> alpha(T, std::vector<double>(N, 0.0));
  std::vector<double> cur = prior_;
  std::vector<double> scratch;
  for (size_t t = 0; t < T; ++t) {
    if (t > 0) {
      transition_.LeftMultiplyInto(cur, &scratch);
      cur.swap(scratch);
    }
    for (size_t s = 0; s < N; ++s) cur[s] *= likelihoods[t][s];
    double total = Sum(cur);
    if (total <= 0) {
      return Status::InvalidArgument(
          "observation at step " + std::to_string(t) +
          " has zero likelihood under the model");
    }
    for (double& a : cur) a /= total;
    alpha[t] = cur;
  }

  // Scaled backward pass.
  std::vector<std::vector<double>> beta(T, std::vector<double>(N, 1.0));
  for (size_t t = T - 1; t-- > 0;) {
    for (size_t i = 0; i < N; ++i) {
      double acc = 0;
      const double* row = transition_.Row(i);
      for (size_t j = 0; j < N; ++j) {
        acc += row[j] * likelihoods[t + 1][j] * beta[t + 1][j];
      }
      beta[t][i] = acc;
    }
    Normalize(&beta[t]);
  }

  Smoothed out;
  out.marginals.assign(T, std::vector<double>(N, 0.0));
  for (size_t t = 0; t < T; ++t) {
    for (size_t s = 0; s < N; ++s) {
      out.marginals[t][s] = alpha[t][s] * beta[t][s];
    }
    Normalize(&out.marginals[t]);
  }

  // Pairwise CPTs: P[X_{t+1}=j | X_t=i, o_{1:T}]
  //   proportional to T(i,j) * L_{t+1}(j) * beta_{t+1}(j).
  out.cpts.reserve(T > 0 ? T - 1 : 0);
  for (size_t t = 0; t + 1 < T; ++t) {
    Matrix cpt(N, N, 0.0);
    for (size_t i = 0; i < N; ++i) {
      double total = 0;
      for (size_t j = 0; j < N; ++j) {
        double v =
            transition_.At(i, j) * likelihoods[t + 1][j] * beta[t + 1][j];
        cpt.At(i, j) = v;
        total += v;
      }
      if (total > 0) {
        for (size_t j = 0; j < N; ++j) cpt.At(i, j) /= total;
      } else {
        // Unreachable given the observations; fall back to the prior row so
        // the CPT stays stochastic (this row carries no posterior mass).
        for (size_t j = 0; j < N; ++j) cpt.At(i, j) = transition_.At(i, j);
      }
    }
    out.cpts.push_back(std::move(cpt));
  }
  return out;
}

Result<std::vector<size_t>> DiscreteHmm::MapPath(
    const Likelihoods& likelihoods) const {
  LAHAR_RETURN_NOT_OK(CheckLikelihoods(likelihoods));
  const size_t T = likelihoods.size();
  const size_t N = num_states();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  auto safe_log = [](double p) {
    return p > 0 ? std::log(p) : -std::numeric_limits<double>::infinity();
  };

  std::vector<double> delta(N);
  for (size_t s = 0; s < N; ++s) {
    delta[s] = safe_log(prior_[s]) + safe_log(likelihoods[0][s]);
  }
  std::vector<std::vector<size_t>> back(T, std::vector<size_t>(N, 0));
  std::vector<double> next(N);
  for (size_t t = 1; t < T; ++t) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (size_t i = 0; i < N; ++i) {
      if (delta[i] == kNegInf) continue;
      const double* row = transition_.Row(i);
      for (size_t j = 0; j < N; ++j) {
        double cand = delta[i] + safe_log(row[j]);
        if (cand > next[j]) {
          next[j] = cand;
          back[t][j] = i;
        }
      }
    }
    for (size_t j = 0; j < N; ++j) next[j] += safe_log(likelihoods[t][j]);
    delta.swap(next);  // next is refilled at the top of the loop
  }
  size_t best = 0;
  for (size_t s = 1; s < N; ++s) {
    if (delta[s] > delta[best]) best = s;
  }
  if (delta[best] == kNegInf) {
    return Status::InvalidArgument("no state sequence explains observations");
  }
  std::vector<size_t> path(T);
  path[T - 1] = best;
  for (size_t t = T - 1; t > 0; --t) path[t - 1] = back[t][path[t]];
  return path;
}

std::vector<size_t> DiscreteHmm::SampleTrajectory(size_t T, Rng* rng) const {
  std::vector<size_t> path(T, 0);
  if (T == 0) return path;
  size_t cur = rng->Categorical(prior_);
  if (cur >= num_states()) cur = 0;
  path[0] = cur;
  for (size_t t = 1; t < T; ++t) {
    size_t next = SampleSuccessor(cur, rng);
    cur = next >= num_states() ? cur : next;
    path[t] = cur;
  }
  return path;
}

}  // namespace lahar
