// Tests for the supervised dataset container.
#include <gtest/gtest.h>

#include <numeric>

#include "ml/dataset.hpp"

namespace xpuf::ml {
namespace {

Dataset make_dataset(std::size_t n, std::size_t d) {
  Dataset data;
  data.x = linalg::Matrix(n, d);
  data.y = linalg::Vector(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c)
      data.x(r, c) = static_cast<double>(r * d + c);
    data.y[r] = static_cast<double>(r);
  }
  return data;
}

TEST(Dataset, AddFixesFeatureCount) {
  Dataset data;
  const std::vector<double> row1{1.0, 2.0};
  data.add(row1, 0.0);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.features(), 2u);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(data.add(bad, 1.0), std::invalid_argument);
  const std::vector<double> row2{3.0, 4.0};
  data.add(row2, 1.0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_DOUBLE_EQ(data.x(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(data.y[1], 1.0);
}

TEST(Dataset, SubsetCopiesSelectedRows) {
  const Dataset data = make_dataset(5, 2);
  const std::vector<std::size_t> idx{4, 0, 2};
  const Dataset sub = data.subset(idx);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.y[0], 4.0);
  EXPECT_DOUBLE_EQ(sub.y[1], 0.0);
  EXPECT_DOUBLE_EQ(sub.x(2, 0), 4.0);
}

TEST(Dataset, SubsetValidatesIndices) {
  const Dataset data = make_dataset(3, 1);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(data.subset(bad), std::invalid_argument);
}

TEST(Dataset, HeadSplitKeepsOrder) {
  const Dataset data = make_dataset(6, 1);
  auto [train, test] = data.head_split(4);
  EXPECT_EQ(train.size(), 4u);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_DOUBLE_EQ(train.y[0], 0.0);
  EXPECT_DOUBLE_EQ(test.y[0], 4.0);
  EXPECT_THROW(data.head_split(7), std::invalid_argument);
}

TEST(Dataset, ShuffleKeepsRowsPaired) {
  Dataset data = make_dataset(30, 2);
  Rng rng(3);
  data.shuffle(rng);
  // Row content must still satisfy the construction invariant
  // x(r, 0) == 2 * y[r] (since d = 2).
  for (std::size_t r = 0; r < data.size(); ++r)
    EXPECT_DOUBLE_EQ(data.x(r, 0), 2.0 * data.y[r]);
  // And the multiset of targets is unchanged.
  std::vector<double> ys(data.y.begin(), data.y.end());
  std::sort(ys.begin(), ys.end());
  for (std::size_t i = 0; i < 30; ++i) EXPECT_DOUBLE_EQ(ys[i], static_cast<double>(i));
}

TEST(Dataset, AddHasAmortizedAppendCost) {
  // Regression guard for the O(n^2) build bug: add() used to reallocate and
  // copy the whole matrix on every row. With geometric growth the number of
  // distinct storage capacities over n appends is O(log n); the old
  // row-per-realloc behavior produced one capacity change per append.
  Dataset data;
  const std::size_t n = 20'000, d = 8;
  std::vector<double> row(d);
  std::size_t x_reallocs = 0, y_reallocs = 0;
  std::size_t x_cap = data.x.raw().capacity(), y_cap = data.y.raw().capacity();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) row[c] = static_cast<double>(r * d + c);
    data.add(row, static_cast<double>(r));
    if (data.x.raw().capacity() != x_cap) { ++x_reallocs; x_cap = data.x.raw().capacity(); }
    if (data.y.raw().capacity() != y_cap) { ++y_reallocs; y_cap = data.y.raw().capacity(); }
  }
  EXPECT_LE(x_reallocs, 64u);
  EXPECT_LE(y_reallocs, 64u);
  // Growth must not scramble contents.
  ASSERT_EQ(data.size(), n);
  ASSERT_EQ(data.features(), d);
  for (std::size_t r = 0; r < n; r += 997) {
    for (std::size_t c = 0; c < d; ++c)
      EXPECT_DOUBLE_EQ(data.x(r, c), static_cast<double>(r * d + c));
    EXPECT_DOUBLE_EQ(data.y[r], static_cast<double>(r));
  }
}

TEST(Dataset, ReserveAvoidsGrowthCopies) {
  Dataset data;
  data.reserve(1'000, 3);
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.features(), 3u);
  const std::size_t x_cap = data.x.raw().capacity();
  const std::size_t y_cap = data.y.raw().capacity();
  const std::vector<double> row{1.0, 2.0, 3.0};
  for (std::size_t r = 0; r < 1'000; ++r) data.add(row, 0.5);
  EXPECT_EQ(data.x.raw().capacity(), x_cap);
  EXPECT_EQ(data.y.raw().capacity(), y_cap);
  EXPECT_EQ(data.size(), 1'000u);
}

TEST(Dataset, EmptyDatasetBehaves) {
  const Dataset data;
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.size(), 0u);
}

}  // namespace
}  // namespace xpuf::ml
