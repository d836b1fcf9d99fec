#include "common/serial.h"

#include <array>
#include <cstring>

namespace lahar {
namespace serial {

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void Writer::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Str(std::string_view s) {
  U64(s.size());
  buf_.append(s.data(), s.size());
}

void Writer::DoubleVec(const std::vector<double>& v) {
  U64(v.size());
  for (double d : v) F64(d);
}

Status Reader::Need(size_t n) {
  if (remaining() < n) {
    return Status::InvalidArgument("truncated serialized data (need " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(remaining()) + ")");
  }
  return Status::OK();
}

Status Reader::U8(uint8_t* out) {
  LAHAR_RETURN_NOT_OK(Need(1));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status Reader::U32(uint32_t* out) {
  LAHAR_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *out = v;
  return Status::OK();
}

Status Reader::U64(uint64_t* out) {
  LAHAR_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *out = v;
  return Status::OK();
}

Status Reader::F64(double* out) {
  uint64_t bits;
  LAHAR_RETURN_NOT_OK(U64(&bits));
  static_assert(sizeof(bits) == sizeof(*out));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status Reader::Str(std::string* out) {
  uint64_t len;
  LAHAR_RETURN_NOT_OK(U64(&len));
  LAHAR_RETURN_NOT_OK(Need(len));
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Reader::DoubleVec(std::vector<double>* out) {
  uint64_t len;
  LAHAR_RETURN_NOT_OK(U64(&len));
  // Divide rather than multiply: `len * 8` wraps uint64 for an untrusted
  // len >= 2^61, which would pass Need() and then throw from reserve().
  if (len > remaining() / 8) {
    return Status::InvalidArgument(
        "truncated serialized data (double vector of " + std::to_string(len) +
        " elements, have " + std::to_string(remaining()) + " bytes)");
  }
  out->clear();
  out->reserve(len);
  for (uint64_t i = 0; i < len; ++i) {
    double d;
    LAHAR_RETURN_NOT_OK(F64(&d));
    out->push_back(d);
  }
  return Status::OK();
}

uint32_t Crc32(std::string_view data) {
  static const auto kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320U : 0);
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFU;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace serial
}  // namespace lahar
