#include "ml/linear_regression.hpp"

#include "common/error.hpp"

namespace xpuf::ml {

void LinearRegression::fit(const Dataset& data) {
  XPUF_REQUIRE(!data.empty(), "LinearRegression::fit on empty dataset");
  auto res = linalg::solve_least_squares(data.x, data.y);
  coefficients_ = std::move(res.coefficients);
  train_r_squared_ = res.r_squared;
}

double LinearRegression::predict(std::span<const double> features) const {
  XPUF_REQUIRE(fitted(), "LinearRegression::predict before fit");
  XPUF_REQUIRE(features.size() == coefficients_.size(),
               "LinearRegression feature-count mismatch");
  return linalg::dot(coefficients_.span(), features);
}

linalg::Vector LinearRegression::predict(const linalg::Matrix& x) const {
  XPUF_REQUIRE(fitted(), "LinearRegression::predict before fit");
  return linalg::matvec(x, coefficients_);
}

}  // namespace xpuf::ml
