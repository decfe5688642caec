// Versioned binary serialization: fixture-store files, fixture keys and
// the daemon's frame payloads.
//
// The on-disk layer of runtime::FixtureCache must hand back values that
// are BIT-IDENTICAL to what a fresh compute would produce — otherwise a
// warm store could change experiment CSVs.  Every double therefore
// round-trips through its raw IEEE-754 bit pattern (NaN payloads, signed
// zeros and denormals survive exactly; no text formatting is ever
// involved) and every integer through a fixed little-endian layout, so
// bytes written on one machine decode to the same bits on any other
// IEEE-754 platform.
//
// One field list per type.  A layout is written once, as the ordered
// list of a type's fields, and both directions walk that same list:
//
//   struct Point {
//     double x = 0.0;
//     std::vector<std::string> tags;
//     template <typename Io> void fields(Io& io) { io(x, tags); }
//   };
//   writer(point);                  // x, then tags
//   auto p = reader.read<Point>();  // the same list, read in place
//
// The walk knows double (bit pattern), integers and enums (u64),
// strings (u64 length + bytes), linalg::Vector (size + entries),
// linalg::Matrix (rows + cols + entries, row-major),
// std::complex<double> (real, imag), std::pair (first, second),
// std::vector<T> (u64 count + elements) and every type with a field
// list.  A type whose list cannot be a member — one owned by another
// layer, or one whose constructor checks invariants — gets it from a
// util::Layout<T> specialization instead (below).
//
// Element counts.  Every count the reader meets — string length, Vector
// size, Matrix entries, vector<T> count — passes one check before
// anything is allocated: a count larger than the remaining bytes is a
// SerializeError.  A vector<T> counts its elements at 8 bytes each, the
// least any element the walk knows takes (no field list is empty), so
// it reserves at most one element per 8 remaining bytes: a corrupt or
// hostile count can never make the reader allocate more than a small
// multiple of its input.
//
// BinaryReader throws cps::SerializeError on any truncation or malformed
// count, which the fixture store maps to "corrupt file: recompute
// loudly" and the daemon to Status::kBadRequest.
// kSerializeFormatVersion stamps the container format; per-fixture
// codecs additionally version their own layout via the format string
// they register with the store.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/error.hpp"

namespace cps::util {

/// Container-format version embedded in every fixture-store file.  Bump
/// when the BinaryWriter/BinaryReader wire layout itself changes (stored
/// files from older versions are then recomputed, never misread).
inline constexpr std::uint64_t kSerializeFormatVersion = 1;

/// Thrown on truncated input, trailing bytes, or malformed lengths.  The
/// fixture store treats it as "corrupt store file": warn and recompute.
class SerializeError : public Error {
 public:
  explicit SerializeError(const std::string& what) : Error(what) {}
};

class BinaryWriter;
class BinaryReader;

/// The field list of a type that does not carry its own.  Specialize
/// with either
///
///   template <typename Io, typename Self>
///   static void fields(Io& io, Self& value) { io(value.a, value.b); }
///
/// (walked in place, like the member form), or — for a type that checks
/// invariants in its constructor and so cannot be read in place —
///
///   static void write(BinaryWriter& out, const T& v) { out(v.a(), v.b()); }
///   static T read(BinaryReader& in) { return T{in.read<A>(), in.read<B>()}; }
///
/// (written through the accessors, read back through the constructor;
/// braces keep the reads in order).  The primary template walks T's
/// member `template <typename Io> void fields(Io& io)`.
template <typename T>
struct Layout {
  template <typename Io, typename Self>
  static void fields(Io& io, Self& value) {
    // The writer walks a const value: it only reads the fields it is handed.
    const_cast<T&>(value).fields(io);
  }
};

namespace detail {
template <typename T>
struct IsVector : std::false_type {};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type {};
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};
/// Layout<T> reads T through its constructor (the write/read form).
template <typename T, typename = void>
struct ReadsByConstructor : std::false_type {};
template <typename T>
struct ReadsByConstructor<
    T, std::void_t<decltype(Layout<T>::read(std::declval<BinaryReader&>()))>>
    : std::true_type {};
}  // namespace detail

/// Append-only binary encoder.  All multi-byte values are little-endian
/// regardless of host byte order.
class BinaryWriter {
 public:
  /// Write each value in order — the writing side of every field list.
  template <typename... Ts>
  void operator()(const Ts&... values) { (put(values), ...); }

  void write_u64(std::uint64_t value);
  /// Exact IEEE-754 bit pattern (NaN payloads and -0.0 included).
  void write_double(double value);
  /// Length-prefixed raw bytes.
  void write_string(std::string_view text);
  /// size + every component's bit pattern.
  void write_vector(const linalg::Vector& v);
  /// rows + cols + every entry's bit pattern, row-major.
  void write_matrix(const linalg::Matrix& m);

  const std::string& bytes() const { return buffer_; }
  std::string take() { return std::move(buffer_); }

 private:
  template <typename T>
  void put(const T& value);

  std::string buffer_;
};

/// Sequential decoder over a byte view (the view must outlive the
/// reader).  Every read throws SerializeError when the remaining bytes
/// cannot satisfy it.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  /// Read each value in order, in place — the reading side of every
  /// field list.
  template <typename... Ts>
  void operator()(Ts&... values) { (get(values), ...); }

  /// Read one T.
  template <typename T>
  T read();

  /// Read one T that must span the rest of the input (expect_end()).
  template <typename T>
  T read_all() {
    T value = read<T>();
    expect_end();
    return value;
  }

  std::uint64_t read_u64();
  double read_double();
  std::string read_string();
  linalg::Vector read_vector();
  linalg::Matrix read_matrix();

  /// Bytes not yet consumed.
  std::size_t remaining() const { return bytes_.size() - cursor_; }

  /// Throws SerializeError unless every byte was consumed — catches
  /// codec/version skew that would otherwise pass silently.
  void expect_end() const;

 private:
  template <typename T>
  void get(T& value);

  /// The one count check, run before anything is allocated:
  /// SerializeError unless `count` elements of `element_bytes` each fit
  /// the remaining input.
  std::size_t checked_count(std::uint64_t count, std::size_t element_bytes) const;
  const unsigned char* take(std::size_t count);

  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

template <typename T>
void BinaryWriter::put(const T& value) {
  if constexpr (std::is_same_v<T, double>) {
    write_double(value);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    write_u64(static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    write_string(value);
  } else if constexpr (std::is_same_v<T, linalg::Vector>) {
    write_vector(value);
  } else if constexpr (std::is_same_v<T, linalg::Matrix>) {
    write_matrix(value);
  } else if constexpr (std::is_same_v<T, std::complex<double>>) {
    (*this)(value.real(), value.imag());
  } else if constexpr (detail::IsPair<T>::value) {
    (*this)(value.first, value.second);
  } else if constexpr (detail::IsVector<T>::value) {
    write_u64(value.size());
    for (const auto& item : value) put(item);
  } else if constexpr (detail::ReadsByConstructor<T>::value) {
    Layout<T>::write(*this, value);
  } else {
    Layout<T>::fields(*this, value);
  }
}

template <typename T>
T BinaryReader::read() {
  if constexpr (detail::ReadsByConstructor<T>::value) {
    return Layout<T>::read(*this);
  } else {
    T value{};
    get(value);
    return value;
  }
}

template <typename T>
void BinaryReader::get(T& value) {
  if constexpr (std::is_same_v<T, double>) {
    value = read_double();
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    value = static_cast<T>(read_u64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = read_string();
  } else if constexpr (std::is_same_v<T, linalg::Vector>) {
    value = read_vector();
  } else if constexpr (std::is_same_v<T, linalg::Matrix>) {
    value = read_matrix();
  } else if constexpr (std::is_same_v<T, std::complex<double>>) {
    const double real = read_double();
    value = {real, read_double()};
  } else if constexpr (detail::IsPair<T>::value) {
    (*this)(value.first, value.second);
  } else if constexpr (detail::IsVector<T>::value) {
    const std::size_t count = checked_count(read_u64(), 8);
    value.clear();
    value.reserve(count);
    for (std::size_t i = 0; i < count; ++i) value.push_back(read<typename T::value_type>());
  } else if constexpr (detail::ReadsByConstructor<T>::value) {
    value = Layout<T>::read(*this);
  } else {
    Layout<T>::fields(*this, value);
  }
}

}  // namespace cps::util
