// Tests for the fixed-bin histogram.
#include <gtest/gtest.h>

#include "analysis/histogram.hpp"

namespace xpuf::analysis {
namespace {

TEST(Histogram, ValidatesConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.15);   // bin 1
  h.add(0.95);   // bin 9
  h.add(1.0);    // exactly hi -> last bin
  h.add(0.0);    // exactly lo -> first bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OutOfRangeGoesToOutflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.5);
  h.add(1.5);
  h.add(0.5);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, FractionsIncludeOutflowInDenominator) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.25);
  h.add(2.0);  // overflow
  EXPECT_NEAR(h.fraction(0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
}

TEST(Histogram, FirstAndLastBinFractions) {
  Histogram h(0.0, 1.0, 100);
  for (int i = 0; i < 40; ++i) h.add(0.0);
  for (int i = 0; i < 40; ++i) h.add(1.0);
  for (int i = 0; i < 20; ++i) h.add(0.5);
  EXPECT_NEAR(h.fraction(0), 0.4, 1e-12);
  EXPECT_NEAR(h.fraction(h.bins() - 1), 0.4, 1e-12);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.125);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 0.875);
  EXPECT_THROW(h.bin_center(4), std::invalid_argument);
  EXPECT_THROW(h.count(4), std::invalid_argument);
}

TEST(Histogram, AddAllMatchesRepeatedAdd) {
  Histogram a(0.0, 1.0, 5), b(0.0, 1.0, 5);
  const std::vector<double> values{0.1, 0.3, 0.9, 0.5, 0.5};
  a.add_all(values);
  for (double v : values) b.add(v);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(a.count(i), b.count(i));
}

TEST(Histogram, RenderMentionsCountsAndOutflow) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 7; ++i) h.add(0.05);
  h.add(-1.0);
  const std::string s = h.render(20, 10);
  EXPECT_NE(s.find('7'), std::string::npos);
  EXPECT_NE(s.find("underflow"), std::string::npos);
}

TEST(Histogram, RenderMergesBinsWhenCapped) {
  Histogram h(0.0, 1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 100.0 + 0.001);
  const std::string s = h.render(10, 10);
  // 10 rows max plus possible outflow lines.
  std::size_t lines = 0;
  for (char c : s)
    if (c == '\n') ++lines;
  EXPECT_LE(lines, 12u);
}

}  // namespace
}  // namespace xpuf::analysis
