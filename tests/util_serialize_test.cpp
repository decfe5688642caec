// util/serialize round-trip guarantees: the persistent fixture store is
// only correct if decode(encode(x)) reproduces x BIT-FOR-BIT, including
// the IEEE-754 patterns text formatting would destroy (NaN payloads,
// signed zeros, infinities, denormals).  These tests compare raw bit
// patterns, never values, wherever floating point is involved.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/serialize.hpp"

namespace {

using cps::util::BinaryReader;
using cps::util::BinaryWriter;
using cps::util::SerializeError;

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double double_from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// The adversarial doubles: every class a text round-trip would mangle.
std::vector<double> hostile_doubles() {
  return {
      0.0,
      -0.0,  // signed zero: 0.0 == -0.0 but the bit patterns differ
      1.0,
      -1.0,
      0.1,  // not exactly representable
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      double_from_bits(0x7FF0000000000001ULL),  // signalling-NaN pattern
      double_from_bits(0x7FF8DEADBEEF1234ULL),  // NaN with payload
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::nextafter(1.0, 2.0),
  };
}

TEST(SerializeTest, U64RoundTripIncludingExtremes) {
  BinaryWriter writer;
  const std::vector<std::uint64_t> values = {0, 1, 0xFF, 0x123456789ABCDEF0ULL,
                                             std::numeric_limits<std::uint64_t>::max()};
  for (auto v : values) writer.write_u64(v);
  BinaryReader reader(writer.bytes());
  for (auto v : values) EXPECT_EQ(reader.read_u64(), v);
  reader.expect_end();
}

TEST(SerializeTest, DoubleRoundTripIsBitExact) {
  for (double value : hostile_doubles()) {
    BinaryWriter writer;
    writer.write_double(value);
    BinaryReader reader(writer.bytes());
    const double back = reader.read_double();
    EXPECT_EQ(bits_of(back), bits_of(value))
        << "bit pattern changed for " << std::hexfloat << value;
    reader.expect_end();
  }
}

TEST(SerializeTest, SignedZeroAndNanPayloadSurvive) {
  BinaryWriter writer;
  writer.write_double(-0.0);
  writer.write_double(double_from_bits(0x7FF8DEADBEEF1234ULL));
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(bits_of(reader.read_double()), bits_of(-0.0));          // not +0.0
  EXPECT_EQ(reader.read_u64() /* as raw bits */, 0x7FF8DEADBEEF1234ULL);
}

TEST(SerializeTest, StringRoundTripIncludingEmbeddedNulAndEmpty) {
  BinaryWriter writer;
  const std::string with_nul = std::string("ab\0cd", 5);
  writer.write_string("");
  writer.write_string(with_nul);
  writer.write_string("plain");
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_EQ(reader.read_string(), with_nul);
  EXPECT_EQ(reader.read_string(), "plain");
  reader.expect_end();
}

TEST(SerializeTest, VectorRoundTripIsBitExact) {
  cps::linalg::Vector v(hostile_doubles().size());
  {
    const auto values = hostile_doubles();
    for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];
  }
  BinaryWriter writer;
  writer.write_vector(v);
  BinaryReader reader(writer.bytes());
  const auto back = reader.read_vector();
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(bits_of(back[i]), bits_of(v[i])) << "component " << i;
  reader.expect_end();
}

TEST(SerializeTest, MatrixRoundTripIsBitExactAndKeepsShape) {
  // 3x5 spans both inline storage and a non-square shape; fill with the
  // hostile doubles cyclically.
  cps::linalg::Matrix m(3, 5);
  const auto values = hostile_doubles();
  for (std::size_t i = 0; i < m.element_count(); ++i)
    m.data()[i] = values[i % values.size()];
  BinaryWriter writer;
  writer.write_matrix(m);
  BinaryReader reader(writer.bytes());
  const auto back = reader.read_matrix();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (std::size_t i = 0; i < m.element_count(); ++i)
    EXPECT_EQ(bits_of(back.data()[i]), bits_of(m.data()[i])) << "element " << i;
  reader.expect_end();
}

TEST(SerializeTest, EmptyVectorAndMatrixRoundTrip) {
  BinaryWriter writer;
  writer.write_vector(cps::linalg::Vector());
  writer.write_matrix(cps::linalg::Matrix());
  BinaryReader reader(writer.bytes());
  EXPECT_TRUE(reader.read_vector().empty());
  EXPECT_TRUE(reader.read_matrix().empty());
  reader.expect_end();
}

TEST(SerializeTest, TruncatedInputThrows) {
  BinaryWriter writer;
  writer.write_double(3.14);
  writer.write_string("payload");
  const std::string& full = writer.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader reader(std::string_view(full.data(), cut));
    EXPECT_THROW(
        {
          reader.read_double();
          reader.read_string();
        },
        SerializeError)
        << "no throw at cut " << cut;
  }
}

TEST(SerializeTest, GarbageLengthPrefixThrowsInsteadOfAllocating) {
  // A corrupt length prefix must be caught by the remaining-bytes check,
  // not turned into a gigantic allocation.
  BinaryWriter writer;
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());  // fake length
  writer.write_double(1.0);
  {
    BinaryReader reader(writer.bytes());
    EXPECT_THROW(reader.read_string(), SerializeError);
  }
  {
    BinaryReader reader(writer.bytes());
    EXPECT_THROW(reader.read_vector(), SerializeError);
  }
}

TEST(SerializeTest, OversizedMatrixShapeThrows) {
  BinaryWriter writer;
  writer.write_u64(1u << 20);  // rows
  writer.write_u64(1u << 20);  // cols: rows*cols overflows any sane payload
  BinaryReader reader(writer.bytes());
  EXPECT_THROW(reader.read_matrix(), SerializeError);
}

TEST(SerializeTest, OversizedContainerCountThrowsBeforeAllocating) {
  // 2^40 elements against 8 remaining bytes: the one count check must
  // reject the count before anything is allocated (allocating the
  // claimed count would throw std::length_error or std::bad_alloc, or
  // take terabytes).
  BinaryWriter writer;
  writer.write_u64(std::uint64_t{1} << 40);
  writer.write_u64(7);
  const auto read_throws = [&](auto read) {
    BinaryReader reader(writer.bytes());
    EXPECT_THROW(read(reader), SerializeError);
  };
  read_throws([](BinaryReader& in) { in.read<std::vector<std::string>>(); });
  read_throws([](BinaryReader& in) { in.read<std::vector<std::uint64_t>>(); });
  read_throws([](BinaryReader& in) {
    in.read<std::vector<std::pair<std::string, std::uint64_t>>>();
  });
  read_throws([](BinaryReader& in) { in.read<cps::linalg::Vector>(); });
}

enum class Shade : std::uint64_t { kLight = 3, kDark = 9 };

/// An aggregate with its own field list (in a different order than its
/// members) nesting every kind the walk knows.
struct Sample {
  std::vector<std::pair<std::string, double>> tags;
  Shade shade = Shade::kLight;
  std::complex<double> pole;
  cps::linalg::Matrix gain;
  std::uint64_t id = 0;

  template <typename Io>
  void fields(Io& io) { io(id, shade, pole, gain, tags); }
};

TEST(SerializeTest, FieldListWritesItsFieldsInOrderAndReadsThemBack) {
  Sample sample;
  sample.tags = {{"a", -0.0}, {"bc", 2.5}};
  sample.shade = Shade::kDark;
  sample.pole = {0.25, -0.75};
  sample.gain = cps::linalg::Matrix{{1.0, 2.0}};
  sample.id = 42;

  BinaryWriter by_list;
  by_list(sample);
  BinaryWriter by_hand;  // the same layout spelled out primitive by primitive
  by_hand.write_u64(42);
  by_hand.write_u64(9);
  by_hand.write_double(0.25);
  by_hand.write_double(-0.75);
  by_hand.write_matrix(sample.gain);
  by_hand.write_u64(2);
  by_hand.write_string("a");
  by_hand.write_double(-0.0);
  by_hand.write_string("bc");
  by_hand.write_double(2.5);
  EXPECT_EQ(by_list.bytes(), by_hand.bytes());

  BinaryReader reader(by_list.bytes());
  const Sample back = reader.read_all<Sample>();
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.shade, Shade::kDark);
  EXPECT_EQ(back.pole, sample.pole);
  EXPECT_EQ(back.gain.data()[1], 2.0);
  ASSERT_EQ(back.tags.size(), 2u);
  EXPECT_EQ(back.tags[1].first, "bc");
  EXPECT_EQ(bits_of(back.tags[0].second), bits_of(-0.0));
}

TEST(SerializeTest, ExpectEndCatchesTrailingBytes) {
  BinaryWriter writer;
  writer.write_u64(7);
  writer.write_u64(8);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(reader.read_u64(), 7u);
  EXPECT_THROW(reader.expect_end(), SerializeError);  // 8 bytes unread
  EXPECT_EQ(reader.read_u64(), 8u);
  reader.expect_end();
}

TEST(SerializeTest, LayoutIsStableLittleEndian) {
  // The wire format is a contract with existing store files: pin the
  // exact bytes so an accidental layout change fails here instead of
  // silently invalidating every store in the field.
  BinaryWriter writer;
  writer.write_u64(0x0102030405060708ULL);
  const std::string& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 8u);
  const unsigned char expected[] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i]) << "byte " << i;
}

}  // namespace
