#include "util/serialize.hpp"

#include <cstring>
#include <limits>

namespace cps::util {

void BinaryWriter::write_u64(std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  buffer_.append(bytes, sizeof(bytes));
}

void BinaryWriter::write_double(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof(bits));
  write_u64(bits);
}

void BinaryWriter::write_string(std::string_view text) {
  write_u64(text.size());
  buffer_.append(text.data(), text.size());
}

void BinaryWriter::write_vector(const linalg::Vector& v) {
  write_u64(v.size());
  const double* data = v.data();
  for (std::size_t i = 0; i < v.size(); ++i) write_double(data[i]);
}

void BinaryWriter::write_matrix(const linalg::Matrix& m) {
  write_u64(m.rows());
  write_u64(m.cols());
  const double* data = m.data();
  for (std::size_t i = 0; i < m.element_count(); ++i) write_double(data[i]);
}

const unsigned char* BinaryReader::take(std::size_t count) {
  if (count > remaining())
    throw SerializeError("BinaryReader: truncated input (need " + std::to_string(count) +
                         " bytes, have " + std::to_string(remaining()) + ")");
  const auto* ptr = reinterpret_cast<const unsigned char*>(bytes_.data()) + cursor_;
  cursor_ += count;
  return ptr;
}

std::size_t BinaryReader::checked_count(std::uint64_t count, std::size_t element_bytes) const {
  if (count > remaining() / element_bytes)
    throw SerializeError("BinaryReader: count " + std::to_string(count) + " of " +
                         std::to_string(element_bytes) + "-byte elements exceeds the " +
                         std::to_string(remaining()) + " remaining bytes");
  return static_cast<std::size_t>(count);
}

std::uint64_t BinaryReader::read_u64() {
  const unsigned char* bytes = take(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return value;
}

double BinaryReader::read_double() {
  const std::uint64_t bits = read_u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string BinaryReader::read_string() {
  const std::size_t size = checked_count(read_u64(), 1);
  const unsigned char* bytes = take(size);
  return std::string(reinterpret_cast<const char*>(bytes), size);
}

linalg::Vector BinaryReader::read_vector() {
  linalg::Vector v(checked_count(read_u64(), 8));
  double* data = v.data();
  for (std::size_t i = 0; i < v.size(); ++i) data[i] = read_double();
  return v;
}

linalg::Matrix BinaryReader::read_matrix() {
  const std::uint64_t rows = read_u64();
  const std::uint64_t cols = read_u64();
  // One count check over the entries; an overflowing product is too large.
  const bool overflows = cols != 0 && rows > std::numeric_limits<std::uint64_t>::max() / cols;
  const std::size_t count =
      checked_count(overflows ? std::numeric_limits<std::uint64_t>::max() : rows * cols, 8);
  linalg::Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  double* data = m.data();
  for (std::size_t i = 0; i < count; ++i) data[i] = read_double();
  return m;
}

void BinaryReader::expect_end() const {
  if (remaining() != 0)
    throw SerializeError("BinaryReader: " + std::to_string(remaining()) +
                         " trailing bytes after decode (codec/version skew?)");
}

}  // namespace cps::util
