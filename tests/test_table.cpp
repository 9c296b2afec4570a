// Tests for the aligned console-table renderer used by all benches.
#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hpp"

namespace xpuf {
namespace {

TEST(Table, RendersTitleHeaderAndRows) {
  Table t("My Title");
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("My Title"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, ColumnsAreAligned) {
  Table t("t");
  t.set_header({"col", "x"});
  t.add_row({"longervalue", "1"});
  t.add_row({"s", "2"});
  std::ostringstream os;
  t.print(os);
  // Both data rows must place the second column at the same offset.
  std::istringstream in(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  // rows: title, rule, header, rule, row1, row2, rule
  ASSERT_GE(lines.size(), 6u);
  const std::string& r1 = lines[4];
  const std::string& r2 = lines[5];
  EXPECT_EQ(r1.find('1'), r2.find('2'));
}

TEST(Table, RaggedRowsRenderEmptyCells) {
  Table t("t");
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find('1'), std::string::npos);
}

TEST(TableFormat, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-1.0, 3), "-1.000");
  EXPECT_EQ(Table::num(2.0), "2.0000");
}

TEST(TableFormat, SciFormatsScientific) {
  const std::string s = Table::sci(0.000213, 3);
  EXPECT_NE(s.find("2.130e-04"), std::string::npos);
}

TEST(TableFormat, PctScalesToPercent) {
  EXPECT_EQ(Table::pct(0.109, 1), "10.9%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
  EXPECT_EQ(Table::pct(0.00238, 3), "0.238%");
}

TEST(Table, EmptyTableStillRenders) {
  Table t("empty");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace xpuf
