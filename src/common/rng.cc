#include "common/rng.h"

#include <cassert>

namespace lahar {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

size_t Rng::Categorical(const double* weights, size_t n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += weights[i];
  if (total <= 0) return n;
  double u = Uniform() * total;
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return n - 1;  // Floating-point slack lands on the last index.
}

size_t Rng::Categorical(const uint32_t* cols, const double* weights,
                         size_t count, size_t n) {
  double total = 0;
  for (size_t k = 0; k < count; ++k) total += weights[k];
  if (total <= 0) return n;
  double u = Uniform() * total;
  double acc = 0;
  for (size_t k = 0; k < count; ++k) {
    acc += weights[k];
    if (u < acc) return cols[k];
  }
  return n - 1;  // The same slack as the dense draw: the last index.
}

size_t Rng::SparseCategorical(const uint32_t* cols, const double* sums,
                              size_t count, size_t n) {
  const double total = count == 0 ? 0.0 : sums[count - 1];
  if (total <= 0) return n;
  const double u = Uniform() * total;
  for (size_t k = 0; k < count; ++k) {
    if (u < sums[k]) return cols[k];
  }
  return n - 1;  // The same slack as Categorical: the dense last index.
}

Rng Rng::Split() { return Rng(Next()); }

double GuideTable::Reset(const std::vector<double>& weights) {
  const size_t n = weights.size();
  sums_.resize(n);
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += weights[i];
    sums_[i] = acc;
  }
  total_ = acc;
  if (total_ <= 0) return total_;  // Draw never reads the guide.
  guide_.resize(n);
  scale_ = static_cast<double>(n) / total_;
  size_t j = 0;
  for (size_t i = 0; i < n && j < n; ++i) {
    const size_t b = Bucket(sums_[i]);
    while (j <= b) guide_[j++] = i;
  }
  while (j < n) guide_[j++] = n - 1;
  return total_;
}

size_t GuideTable::Draw(Rng* rng) const {
  const size_t n = sums_.size();
  if (total_ <= 0) return n;
  const double u = rng->Uniform() * total_;
  // `!(u < sum)` rather than `u >= sum`: a NaN total scans to the last
  // index, as Categorical does.
  size_t i = guide_[Bucket(u)];
  while (i + 1 < n && !(u < sums_[i])) ++i;
  return i;
}

size_t GuideTable::Bucket(double x) const {
  // Monotone in x; NaN and overflow land in the last bucket.
  const double b = x * scale_;
  if (!(b < static_cast<double>(sums_.size()))) return sums_.size() - 1;
  return b > 0 ? static_cast<size_t>(b) : 0;
}

}  // namespace lahar
