// Sparse storage for the transition tables of Markovian streams.
//
// A CPT slice E(t)(d, d') = P[e(t+1) = d' | e(t) = d] is kept the way the
// relation E(ID, T, A', A, P) of Fig. 3(d) keeps it: one entry per
// transition whose probability is not zero. Rows are CSR: row d holds its
// nonzero columns in ascending order beside their probabilities. A
// floorplan motion model gives each location a handful of successors, so a
// smoothed slice stores a few percent of its D x D entries (docs/PERF.md,
// "Sparse CPT storage").
//
// Only entries equal to +0.0 or -0.0 are dropped; tiny in-tolerance
// negatives are kept. Every reader walks a row's entries in ascending
// column order, which is the order a dense scan visits them, and a dropped
// entry only ever contributed a +-0.0 product to a sum that starts at +0.0.
// Adding +-0.0 to such a sum leaves its bits unchanged, so every result
// is bit-identical to the dense walk.
#ifndef LAHAR_MODEL_CPT_H_
#define LAHAR_MODEL_CPT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"

namespace lahar {

/// One stored transition: successor column and its probability.
struct CptEntry {
  uint32_t col;
  double p;
};

/// \brief The stored (nonzero) entries of one CPT row, columns ascending.
class CptRow {
 public:
  class Iterator {
   public:
    Iterator(const uint32_t* col, const double* p) : col_(col), p_(p) {}
    CptEntry operator*() const { return {*col_, *p_}; }
    Iterator& operator++() {
      ++col_;
      ++p_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return col_ != o.col_; }

   private:
    const uint32_t* col_;
    const double* p_;
  };

  CptRow(const uint32_t* cols, const double* probs, size_t size)
      : cols_(cols), probs_(probs), size_(size) {}

  size_t size() const { return size_; }
  const uint32_t* cols() const { return cols_; }
  const double* probs() const { return probs_; }
  Iterator begin() const { return {cols_, probs_}; }
  Iterator end() const { return {cols_ + size_, probs_ + size_}; }

 private:
  const uint32_t* cols_;
  const double* probs_;
  size_t size_;
};

/// \brief Read-only view of one CSR slice. Cheap to copy. It points into
/// the slice's own buffers, which never move when later slices are
/// appended to the stream.
class CptView {
 public:
  CptView(uint32_t rows, uint32_t cols, const uint32_t* index,
          const double* probs)
      : rows_(rows), cols_(cols), index_(index), probs_(probs) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nonzeros() const { return rows_ == 0 ? 0 : index_[rows_]; }

  /// Row r's stored entries. A row at or past rows() (a source value
  /// interned after this slice was recorded) is empty.
  CptRow Row(size_t r) const {
    if (r >= rows_) return {nullptr, nullptr, 0};
    const uint32_t begin = index_[r];
    return {index_ + rows_ + 1 + begin, probs_ + begin, index_[r + 1] - begin};
  }

  /// Entry (r, c): 0 wherever nothing is stored, past the dims included.
  double At(size_t r, size_t c) const;

  /// v * this written into `out` (resized to cols()): the Markov chaining
  /// step. Entries of `v` past rows() count as zero. The sum order matches
  /// Matrix::LeftMultiplyInto exactly, so the result is bit-identical.
  void LeftMultiplyInto(const std::vector<double>& v,
                        std::vector<double>* out) const;

  /// The dense rows() x cols() form (what a TickBatch carries).
  Matrix ToDense() const;

 private:
  uint32_t rows_;
  uint32_t cols_;
  const uint32_t* index_;  // rows_ + 1 offsets, then one column per entry
  const double* probs_;
};

/// \brief One owned CSR slice: the storage behind Stream::CptAt. A
/// default-constructed slice is unset (0 x 0).
class CptSlice {
 public:
  CptSlice() = default;
  /// Keeps every entry of `dense` that is not +-0.0.
  explicit CptSlice(const Matrix& dense);

  CptView view() const {
    return {rows_, cols_, index_.data(), probs_.data()};
  }
  size_t rows() const { return rows_; }
  size_t nonzeros() const { return probs_.size(); }
  /// Bytes held: this object plus its two buffers.
  size_t bytes() const {
    return sizeof(CptSlice) + index_.capacity() * sizeof(uint32_t) +
           probs_.capacity() * sizeof(double);
  }
  /// Content digest (dual word-wise FNV over the dims and every stored
  /// (column, bits) pair, row by row), computed once when the slice is
  /// built. Bit-equal slices have equal digests.
  const std::array<uint64_t, 2>& digest() const { return digest_; }

 private:
  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  std::vector<uint32_t> index_;  // rows_ + 1 offsets, then the columns
  std::vector<double> probs_;
  std::array<uint64_t, 2> digest_{};
};

}  // namespace lahar

#endif  // LAHAR_MODEL_CPT_H_
