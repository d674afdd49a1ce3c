// Tests for util/csv.h: round-trips, headers, and malformed input.

#include "util/csv.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>

namespace least {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "least_csv_test.csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteRaw(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, RoundTripWithHeader) {
  std::vector<std::vector<double>> rows = {{1.5, -2.0}, {3.0, 4.25}};
  ASSERT_TRUE(WriteCsv(path_, {"a", "b"}, rows).ok());
  auto result = ReadCsv(path_, /*has_header=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(result.value().rows[1][1], 4.25);
}

TEST_F(CsvTest, RoundTripWithoutHeader) {
  std::vector<std::vector<double>> rows = {{1, 2, 3}};
  ASSERT_TRUE(WriteCsv(path_, {}, rows).ok());
  auto result = ReadCsv(path_, /*has_header=*/false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().header.empty());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].size(), 3u);
}

TEST_F(CsvTest, PrecisionSurvivesRoundTrip) {
  const double v = 0.123456789012345678;
  ASSERT_TRUE(WriteCsv(path_, {}, {{v}}).ok());
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], v);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsv("/nonexistent/definitely/not/here.csv", false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, RaggedRowsRejected) {
  WriteRaw("1,2,3\n4,5\n");
  auto result = ReadCsv(path_, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, NonNumericCellRejected) {
  WriteRaw("1,banana\n");
  auto result = ReadCsv(path_, false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, EmptyLinesSkipped) {
  WriteRaw("1,2\n\n3,4\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows.size(), 2u);
}

TEST_F(CsvTest, WindowsLineEndingsHandled) {
  WriteRaw("h1,h2\r\n1,2\r\n");
  auto result = ReadCsv(path_, true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().header[1], "h2");
  EXPECT_DOUBLE_EQ(result.value().rows[0][1], 2.0);
}

TEST_F(CsvTest, NegativeAndScientificNotation) {
  WriteRaw("-1.5,2e-3,1E5\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], -1.5);
  EXPECT_DOUBLE_EQ(result.value().rows[0][1], 2e-3);
  EXPECT_DOUBLE_EQ(result.value().rows[0][2], 1e5);
}

TEST_F(CsvTest, UnwritablePathIsIoError) {
  Status s = WriteCsv("/nonexistent/dir/file.csv", {}, {{1.0}});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST_F(CsvTest, NonFiniteCellsRejected) {
  // strtod parses all of these successfully; the reader must still refuse
  // them — learning data has to be finite.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "INF", "1e999"}) {
    WriteRaw(std::string("1.0,") + bad + "\n");
    auto result = ReadCsv(path_, false);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(CsvTest, HeaderColumnCountMismatchRejected) {
  // Three header names but two-value rows: shape mismatch, not data.
  WriteRaw("a,b,c\n1,2\n");
  auto result = ReadCsv(path_, /*has_header=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, EmptyFileYieldsNoRows) {
  // An empty file is not an IO error at this layer; rejecting empty
  // datasets is CsvDataSource's job (kInvalidArgument there).
  WriteRaw("");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
}

TEST_F(CsvTest, LoneCommaRejected) {
  // "," splits into two empty cells — empty cells are not numbers.
  WriteRaw(",\n");
  auto result = ReadCsv(path_, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, TrailingGarbageAfterNumberAccepted) {
  // strtod semantics: leading numeric prefix parses ("1.5x" -> 1.5). This
  // is intentional leniency, documented by pinning it here.
  WriteRaw("1.5x,2\n");
  auto result = ReadCsv(path_, false);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows[0][0], 1.5);
}

// --- cell semantics: the zero-copy parser against the strtod rule ---

struct CellVerdict {
  bool ok = false;
  uint64_t bits = 0;
  std::string message;
};

/// The reference cell rule the parser must match bit for bit: `strtod` on
/// the whole cell, refusing no numeric prefix and ERANGE as non-numeric
/// and nan/inf as non-finite.
CellVerdict ReferenceCell(const std::string& cell) {
  const std::string where = "' at line 7 in 'ref.csv'";
  CellVerdict verdict;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || errno == ERANGE) {
    verdict.message = "non-numeric CSV cell '" + cell + where;
  } else if (!std::isfinite(v)) {
    verdict.message = "non-finite CSV cell '" + cell + where;
  } else {
    verdict.ok = true;
    std::memcpy(&verdict.bits, &v, sizeof(v));
  }
  return verdict;
}

CellVerdict ParsedCell(const std::string& cell) {
  // An exactly-sized heap copy with no terminator, so a read past the cell
  // shows up under ASan.
  std::unique_ptr<char[]> bytes(new char[cell.size()]);
  std::memcpy(bytes.get(), cell.data(), cell.size());
  CellVerdict verdict;
  double v = 0.0;
  const Status s = ParseCsvRow(std::string_view(bytes.get(), cell.size()),
                               /*line_no=*/7, "ref.csv", &v);
  verdict.ok = s.ok();
  if (s.ok()) {
    std::memcpy(&verdict.bits, &v, sizeof(v));
  } else {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << cell;
    verdict.message = s.message();
  }
  return verdict;
}

/// Empty when the parser agrees with the reference on `cell`.
std::string CellDifference(const std::string& cell) {
  const CellVerdict want = ReferenceCell(cell);
  const CellVerdict got = ParsedCell(cell);
  if (want.ok != got.ok || want.bits != got.bits ||
      want.message != got.message) {
    return "cell '" + cell + "': reference " +
           (want.ok ? "accepts" : "refuses") + ", parser " +
           (got.ok ? "accepts" : "refuses") + " (" + got.message + ")";
  }
  return "";
}

TEST(CsvCellRule, EdgeCellsMatchStrtodReference) {
  const std::vector<std::string> cells = {
      " 1", "+1", "0x10", "0X1p3", "1e", "1e+", "-0", "0", ".5", "-.5",
      "5.", "-", ".", "", "1e-310", "4.9e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1e-400", "1e999", "-1e999", "-nan",
      "nan", "NaN", "inf", "-inf", "INF", "infinity", "-Infinity",
      "1.7976931348623157e308", "1.7976931348623159e308", "1e5x", "1.5x",
      "12345678901234567890123456789012345678901234567890",
      "1.2345678901234567890123456789012345678901234567890e-5", "1e5",
      "-2e-3", "1E5", "0.1", "3"};
  for (const std::string& cell : cells) {
    EXPECT_EQ(CellDifference(cell), "");
  }
  // Sanity of the table itself: the interesting verdicts are the lenient
  // strtod ones and the refused range edges.
  EXPECT_TRUE(ReferenceCell(" 1").ok);
  EXPECT_TRUE(ReferenceCell("0x10").ok);
  EXPECT_TRUE(ReferenceCell("1e5x").ok);
  EXPECT_FALSE(ReferenceCell("1e-310").ok);
  EXPECT_FALSE(ReferenceCell("1e999").ok);
  EXPECT_FALSE(ReferenceCell("-nan").ok);
}

TEST(CsvCellRule, DifferentialFuzzAgainstStrtodReference) {
  std::mt19937_64 rng(20211);
  const std::string alphabet = "0123456789.-+eExXpP nai";
  size_t differences = 0;
  std::string first;
  auto check = [&](const std::string& cell) {
    const std::string diff = CellDifference(cell);
    if (diff.empty()) return;
    if (differences++ == 0) first = diff;
  };
  for (int i = 0; i < 1000000; ++i) {
    std::string cell(1 + rng() % 8, ' ');
    for (char& c : cell) c = alphabet[rng() % alphabet.size()];
    check(cell);
  }
  char text[64];
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    std::snprintf(text, sizeof(text), "%.17g", v);
    check(text);
  }
  EXPECT_EQ(differences, 0u) << first;
}

TEST(CsvCellRule, CellsSplitOnEveryComma) {
  double out[4] = {};
  ASSERT_TRUE(ParseCsvRow("1,-2.5,3e2,0x10", 1, "p", out).ok());
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], -2.5);
  EXPECT_EQ(out[2], 300.0);
  EXPECT_EQ(out[3], 16.0);
  EXPECT_EQ(CountCsvCells("1,2,"), 3u);
  const Status trailing = ParseCsvRow("1,2,", 4, "p.csv", out);
  EXPECT_EQ(trailing.message(),
            "non-numeric CSV cell '' at line 4 in 'p.csv'");
}

}  // namespace
}  // namespace least
