// Unit tests for the util module: error contracts, formatting, tables,
// CSV output, the deterministic RNG and the FNV-1a 64 hash.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;

TEST(ErrorTest, EnsureThrowsInvalidArgumentWithLocation) {
  try {
    CPS_ENSURE(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, EnsurePassesQuietly) {
  EXPECT_NO_THROW(CPS_ENSURE(2 + 2 == 4, "fine"));
}

TEST(ErrorTest, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw DimensionMismatch("d"), Error);
  EXPECT_THROW(throw NumericalError("n"), Error);
  EXPECT_THROW(throw InfeasibleError("i"), Error);
  EXPECT_THROW(throw InvalidArgument("a"), Error);
}

TEST(FormatTest, FixedPrecision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.14159, 0), "3");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

TEST(FormatTest, GeneralIntegersRenderWithoutDecimals) {
  EXPECT_EQ(format_general(42.0), "42");
  EXPECT_EQ(format_general(-3.0), "-3");
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(FormatTest, JoinAndRepeat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_EQ(repeat("x", 0), "");
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, NumericRowHelper) {
  TextTable t({"app", "a", "b"});
  t.add_row("C1", {1.234, 5.678}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
  EXPECT_NE(t.render().find("5.68"), std::string::npos);
}

TEST(TableTest, RaggedRowsExtendColumns) {
  TextTable t({"one"});
  t.add_row({"a", "b", "c"});
  EXPECT_NO_THROW(t.render());
}

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/cps_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.write_row(std::vector<std::string>{"1", "2"});
    csv.write_row(std::vector<double>{3.5, 4.5}, 1);
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,4.5");
  std::remove(path.c_str());
}

TEST(CsvTest, EscapesSpecialCharacters) {
  const std::string path = testing::TempDir() + "/cps_csv_escape.csv";
  {
    CsvWriter csv(path, {"field"});
    csv.write_row(std::vector<std::string>{"a,b \"quoted\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b \"\"quoted\"\"\"");
  std::remove(path.c_str());
}

TEST(CsvTest, ArityMismatchThrows) {
  const std::string path = testing::TempDir() + "/cps_csv_arity.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.write_row(std::vector<std::string>{"only-one"}), InvalidArgument);
  std::remove(path.c_str());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
  }
}

TEST(RngTest, InvalidRangesThrow) {
  Rng rng;
  EXPECT_THROW(rng.uniform(1.0, 1.0), InvalidArgument);
  EXPECT_THROW(rng.uniform_int(3, 2), InvalidArgument);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), InvalidArgument);
  EXPECT_THROW(rng.bernoulli(1.5), InvalidArgument);
}

// Fixture keys, store checksums, spec digests and daemon fingerprints
// are all this hash: its values are frozen.
TEST(HashTest, Fnv1a64MatchesPinnedValues) {
  EXPECT_EQ(util::hex64(util::fnv1a64("")), "cbf29ce484222325");
  EXPECT_EQ(util::hex64(util::fnv1a64("a")), "af63dc4c8601ec8c");
  EXPECT_EQ(util::hex64(util::fnv1a64("foobar")), "85944171f73967e8");
  EXPECT_EQ(util::hex64(0x2a), "000000000000002a");
}

}  // namespace
