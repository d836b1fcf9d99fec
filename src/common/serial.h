// Minimal binary serialization for checkpoints: a byte-buffer Writer and a
// bounds-checked Reader over little-endian fixed-width integers and
// bit-exact doubles.
//
// The encoding is deliberately dumb — no varints, no tags — because the
// consumers (model snapshots, runtime checkpoints) carry their own versioned
// headers and care about exactly two properties: doubles round-trip
// bit-for-bit (restored chains must continue bit-identically), and corrupt
// or truncated input fails with a Status instead of reading out of bounds.
#ifndef LAHAR_COMMON_SERIAL_H_
#define LAHAR_COMMON_SERIAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace lahar {
namespace serial {

/// \brief Appends little-endian values to a growing byte buffer.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// Bit-exact double (the IEEE-754 bit pattern as a u64).
  void F64(double v);
  /// u64 length followed by the raw bytes.
  void Str(std::string_view s);
  /// u64 length followed by bit-exact doubles.
  void DoubleVec(const std::vector<double>& v);

  const std::string& str() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Consumes a byte buffer written by Writer. Every read is
/// bounds-checked: running past the end (or a length prefix larger than the
/// remaining bytes) returns InvalidArgument, never UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);
  Status DoubleVec(std::vector<double>* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected, the zlib checksum) of `data`.
uint32_t Crc32(std::string_view data);

}  // namespace serial
}  // namespace lahar

#endif  // LAHAR_COMMON_SERIAL_H_
