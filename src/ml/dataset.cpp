#include "ml/dataset.hpp"

#include <numeric>

#include "common/error.hpp"

namespace xpuf::ml {

void Dataset::add(std::span<const double> features_row, double target) {
  if (x.rows() == 0 && x.cols() == 0) {
    x = linalg::Matrix(0, features_row.size());
  }
  XPUF_REQUIRE(features_row.size() == x.cols(), "Dataset::add feature-count mismatch");
  x.append_row(features_row);
  y.push_back(target);
}

void Dataset::reserve(std::size_t n_samples, std::size_t n_features) {
  if (x.rows() == 0 && x.cols() == 0) x = linalg::Matrix(0, n_features);
  XPUF_REQUIRE(n_features == x.cols(), "Dataset::reserve feature-count mismatch");
  x.reserve_rows(n_samples);
  y.reserve(n_samples);
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.x = linalg::Matrix(indices.size(), x.cols());
  out.y = linalg::Vector(indices.size());
  for (std::size_t r = 0; r < indices.size(); ++r) {
    const std::size_t src = indices[r];
    XPUF_REQUIRE(src < x.rows(), "Dataset::subset index out of range");
    for (std::size_t c = 0; c < x.cols(); ++c) out.x(r, c) = x(src, c);
    out.y[r] = y[src];
  }
  return out;
}

std::pair<Dataset, Dataset> Dataset::head_split(std::size_t n_train) const {
  XPUF_REQUIRE(n_train <= size(), "head_split: n_train exceeds dataset size");
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::span<const std::size_t> all(idx);
  return {subset(all.subspan(0, n_train)), subset(all.subspan(n_train))};
}

void Dataset::shuffle(Rng& rng) {
  std::vector<std::size_t> idx(size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  rng.shuffle(idx);
  *this = subset(idx);
}

}  // namespace xpuf::ml
