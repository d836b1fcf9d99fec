#include "model/cpt.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lahar {

double CptView::At(size_t r, size_t c) const {
  const CptRow row = Row(r);
  const uint32_t* end = row.cols() + row.size();
  const uint32_t* it = std::lower_bound(row.cols(), end, c);
  return it != end && *it == c ? row.probs()[it - row.cols()] : 0.0;
}

void CptView::LeftMultiplyInto(const std::vector<double>& v,
                               std::vector<double>* out) const {
  assert(out != &v);
  out->assign(cols_, 0.0);
  double* dst = out->data();
  const size_t n = std::min<size_t>(rows_, v.size());
  for (size_t r = 0; r < n; ++r) {
    const double a = v[r];
    if (a == 0) continue;
    for (const CptEntry e : Row(r)) dst[e.col] += a * e.p;
  }
}

Matrix CptView::ToDense() const {
  Matrix dense(rows_, cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (const CptEntry e : Row(r)) dense.At(r, e.col) = e.p;
  }
  return dense;
}

CptSlice::CptSlice(const Matrix& dense)
    : rows_(static_cast<uint32_t>(dense.rows())),
      cols_(static_cast<uint32_t>(dense.cols())) {
  if (rows_ == 0) return;  // unset, exactly as default-constructed
  // Two passes so both buffers are allocated at their exact size.
  size_t nnz = 0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = dense.Row(r);
    for (size_t c = 0; c < cols_; ++c) nnz += row[c] != 0.0;
  }
  index_.resize(rows_ + 1 + nnz);
  probs_.resize(nnz);
  uint32_t* cols = index_.data() + rows_ + 1;
  uint32_t k = 0;
  for (size_t r = 0; r < rows_; ++r) {
    index_[r] = k;
    const double* row = dense.Row(r);
    for (size_t c = 0; c < cols_; ++c) {
      if (row[c] == 0.0) continue;
      cols[k] = static_cast<uint32_t>(c);
      probs_[k] = row[c];
      ++k;
    }
  }
  index_[rows_] = k;

  // Dual word-wise FNV-1a: word-wise keeps it well under the cost of the
  // validation pass that already read every entry on the write path.
  uint64_t lo = 0xcbf29ce484222325ULL;
  uint64_t hi = 0x84222325cbf29ce4ULL;
  auto mix = [&](uint64_t v) {
    lo = (lo ^ v) * 0x100000001b3ULL;
    hi = (hi ^ v) * 0x00000100000001b3ULL + 0x9e3779b97f4a7c15ULL;
  };
  mix(rows_);
  mix(cols_);
  const CptView v = view();
  for (size_t r = 0; r < rows_; ++r) {
    const CptRow row = v.Row(r);
    mix(row.size());
    for (const CptEntry e : row) {
      uint64_t bits;
      std::memcpy(&bits, &e.p, sizeof(bits));
      mix(e.col);
      mix(bits);
    }
  }
  digest_ = {lo, hi};
}

}  // namespace lahar
