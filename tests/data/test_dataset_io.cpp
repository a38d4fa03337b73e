#include "data/dataset_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"

namespace dasc::data {
namespace {

// Exact equality: the same 64 bits, so -0.0 differs from 0.0 and no ULP
// slack is allowed.
::testing::AssertionResult SameBits(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " != " << want << std::defaultfloat;
}

// The values a number codec is most likely to get wrong, plus 10k random
// finite bit patterns from a fixed seed.
std::vector<double> edge_and_random_doubles() {
  const double two53 = 9007199254740992.0;
  std::vector<double> values{0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             DBL_MIN,
                             -DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             -0.1,
                             1.0 / 3.0,
                             std::nextafter(two53, 0.0),
                             two53,
                             std::nextafter(two53, 2.0 * two53),
                             two53 + 2.0,
                             1e-17,
                             1e16,
                             123456789.0};
  std::mt19937_64 bits(20240615);
  while (values.size() < 10018) {
    const double value = std::bit_cast<double>(bits());
    if (std::isfinite(value)) values.push_back(value);
  }
  return values;
}

std::string load_error(const std::string& path, bool labelled) {
  try {
    load_csv(path, labelled);
  } catch (const dasc::IoError& error) {
    return error.what();
  }
  return "no error";
}

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dasc_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, CsvRoundTripWithLabels) {
  Rng rng(1);
  MixtureParams params;
  params.n = 20;
  params.dim = 3;
  const PointSet original = make_gaussian_mixture(params, rng);
  save_csv(original, path("points.csv"));
  const PointSet loaded = load_csv(path("points.csv"), true);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.label(i), original.label(i));
    for (std::size_t d = 0; d < original.dim(); ++d) {
      EXPECT_TRUE(SameBits(loaded.at(i, d), original.at(i, d)));
    }
  }
}

TEST_F(DatasetIoTest, CsvRoundTripWithoutLabels) {
  Rng rng(2);
  const PointSet original = make_uniform(10, 4, rng);
  save_csv(original, path("plain.csv"));
  const PointSet loaded = load_csv(path("plain.csv"), false);
  EXPECT_EQ(loaded.size(), 10u);
  EXPECT_EQ(loaded.dim(), 4u);
  EXPECT_FALSE(loaded.has_labels());
}

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  Rng rng(3);
  MixtureParams params;
  params.n = 33;
  params.dim = 5;
  const PointSet original = make_gaussian_mixture(params, rng);
  save_binary(original, path("points.bin"));
  const PointSet loaded = load_binary(path("points.bin"));
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.values(), original.values());
  EXPECT_EQ(loaded.labels(), original.labels());
}

TEST_F(DatasetIoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_csv(path("nope.csv"), false), dasc::IoError);
  EXPECT_THROW(load_binary(path("nope.bin")), dasc::IoError);
}

TEST_F(DatasetIoTest, MalformedCsvThrows) {
  {
    std::ofstream out(path("bad.csv"));
    out << "1.0,2.0\n1.0,not_a_number\n";
  }
  EXPECT_THROW(load_csv(path("bad.csv"), false), dasc::IoError);
  // Every field must be one whole number: no trailing garbage, no empty
  // field (a trailing comma is one), no embedded blank, no "+-".
  for (const std::string bad_row :
       {"1.5abc,2.0", "1.0,2.0,", "1.0,,2.0", ",1.0,2.0", "1 .0,2.0",
        "+-1.0,2.0", "1.0,0x10", "1.0;2.0", "1.0,2.0 x"}) {
    SCOPED_TRACE(bad_row);
    {
      std::ofstream out(path("bad_row.csv"));
      out << "3.0,4.0\n" << bad_row << "\n";
    }
    const std::string message = load_error(path("bad_row.csv"), false);
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST_F(DatasetIoTest, ErrorsNameTheLineNumber) {
  {
    std::ofstream out(path("ragged_late.csv"));
    out << "1,2\n\n3,4\n5\n";
  }
  const std::string message = load_error(path("ragged_late.csv"), false);
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
}

TEST_F(DatasetIoTest, CrlfAndBlanksLoadTheSameValues) {
  Rng rng(4);
  const PointSet original = make_uniform(25, 3, rng);
  save_csv(original, path("plain.csv"), false);
  std::ifstream in(path("plain.csv"));
  std::ofstream crlf(path("crlf.csv"));
  std::ofstream spaced(path("spaced.csv"));
  for (std::string line; std::getline(in, line);) {
    crlf << line << "\r\n";
    spaced << "  ";
    for (const char c : line) {
      if (c == ',') {
        spaced << " ,\t";
      } else {
        spaced << c;
      }
    }
    spaced << " \n";
  }
  crlf.close();
  spaced.close();
  const PointSet plain = load_csv(path("plain.csv"), false);
  for (const char* variant : {"crlf.csv", "spaced.csv"}) {
    SCOPED_TRACE(variant);
    const PointSet loaded = load_csv(path(variant), false);
    ASSERT_EQ(loaded.size(), plain.size());
    ASSERT_EQ(loaded.dim(), plain.dim());
    for (std::size_t i = 0; i < plain.values().size(); ++i) {
      EXPECT_TRUE(SameBits(loaded.values()[i], plain.values()[i]));
    }
  }
}

TEST_F(DatasetIoTest, LeadingPlusIsAccepted) {
  {
    std::ofstream out(path("plus.csv"));
    out << "+1.5,-2,+3\n";
  }
  const PointSet loaded = load_csv(path("plus.csv"), true);
  ASSERT_EQ(loaded.dim(), 2u);
  EXPECT_TRUE(SameBits(loaded.at(0, 0), 1.5));
  EXPECT_TRUE(SameBits(loaded.at(0, 1), -2.0));
  EXPECT_EQ(loaded.label(0), 3);
}

TEST_F(DatasetIoTest, LabelColumnMustBeAnInt) {
  {
    std::ofstream out(path("labels.csv"));
    out << "0.5,-7\n1.5,2147483647\n";
  }
  const PointSet loaded = load_csv(path("labels.csv"), true);
  EXPECT_EQ(loaded.labels(), (std::vector<int>{-7, 2147483647}));
  for (const std::string bad_label :
       {"2.5", "1e20", "2147483648", "-2147483649", "1.0", "x", ""}) {
    SCOPED_TRACE(bad_label);
    {
      std::ofstream out(path("bad_label.csv"));
      out << "0.5,1\n0.25," << bad_label << "\n";
    }
    const std::string message = load_error(path("bad_label.csv"), true);
    EXPECT_NE(message.find("label"), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST_F(DatasetIoTest, EdgeAndRandomDoublesRoundTripExactly) {
  const std::vector<double> values = edge_and_random_doubles();
  const std::size_t dim = 2;
  PointSet original(values.size() / dim, dim,
                    std::vector<double>(values.begin(), values.end()));
  save_csv(original, path("edges.csv"), false);
  const PointSet loaded = load_csv(path("edges.csv"), false);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(loaded.values()[i], values[i])) << "index " << i;
  }
}

TEST_F(DatasetIoTest, LinesSpanningReadChunksLoadWhole) {
  // Several MiB of rows of varying width land on every offset of the
  // bounded read chunk; one row longer than a whole chunk follows.
  Rng rng(6);
  const PointSet original = make_uniform(60000, 3, rng);
  const std::size_t wide_dim = 100000;  // ~2 MiB of text on one line
  PointSet wide = make_uniform(1, wide_dim, rng);
  save_csv(original, path("many.csv"), false);
  save_csv(wide, path("wide.csv"), false);
  ASSERT_GT(std::filesystem::file_size(path("many.csv")),
            std::size_t{2} << 20);
  ASSERT_GT(std::filesystem::file_size(path("wide.csv")),
            std::size_t{1} << 20);
  const PointSet loaded = load_csv(path("many.csv"), false);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.values(), original.values());
  const PointSet loaded_wide = load_csv(path("wide.csv"), false);
  ASSERT_EQ(loaded_wide.size(), 1u);
  ASSERT_EQ(loaded_wide.dim(), wide_dim);
  EXPECT_EQ(loaded_wide.values(), wide.values());
}

TEST_F(DatasetIoTest, LastLineWithoutNewlineLoads) {
  {
    std::ofstream out(path("no_newline.csv"));
    out << "1,2\n3,4";
  }
  const PointSet loaded = load_csv(path("no_newline.csv"), false);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(SameBits(loaded.at(1, 1), 4.0));
}

TEST_F(DatasetIoTest, InconsistentColumnCountThrows) {
  {
    std::ofstream out(path("ragged.csv"));
    out << "1.0,2.0\n3.0\n";
  }
  EXPECT_THROW(load_csv(path("ragged.csv"), false), dasc::IoError);
}

TEST_F(DatasetIoTest, EmptyCsvThrows) {
  { std::ofstream out(path("empty.csv")); }
  EXPECT_THROW(load_csv(path("empty.csv"), false), dasc::IoError);
}

TEST(RecordSerialization, RoundTripPreservesPrecision) {
  const std::vector<double> point{0.1234567890123456, -7.5, 1e-17};
  const std::string record = point_to_record(point);
  const std::vector<double> back = record_to_point(record);
  ASSERT_EQ(back.size(), point.size());
  for (std::size_t d = 0; d < point.size(); ++d) {
    EXPECT_TRUE(SameBits(back[d], point[d]));
  }
}

TEST(RecordSerialization, EdgeAndRandomDoublesRoundTripExactly) {
  const std::vector<double> values = edge_and_random_doubles();
  const std::size_t dim = 64;
  for (std::size_t start = 0; start < values.size(); start += dim) {
    const std::span<const double> point(
        values.data() + start, std::min(dim, values.size() - start));
    const std::vector<double> back = record_to_point(point_to_record(point));
    ASSERT_EQ(back.size(), point.size());
    for (std::size_t d = 0; d < point.size(); ++d) {
      EXPECT_TRUE(SameBits(back[d], point[d])) << "index " << start + d;
    }
  }
}

TEST(RecordSerialization, WritesShortestRoundTripText) {
  EXPECT_EQ(point_to_record(std::vector<double>{0.1, -0.0, 1e-17, 2.5}),
            "0.1,-0,1e-17,2.5");
}

TEST(RecordSerialization, MalformedRecordThrows) {
  for (const char* bad : {"1.0,abc", "1.5abc", "1.0,", ",1.0", "1.0,,2.0",
                          "", "1 .5", "+-1", "1.0\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(record_to_point(bad), dasc::IoError);
  }
}

}  // namespace
}  // namespace dasc::data
