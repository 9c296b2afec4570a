// Ordinary-least-squares linear regression.
//
// This is the paper's enrollment model (Sec 4): measured *soft* responses
// (fractional flip rates) are regressed on the transformed challenge
// features; the fitted coefficients are proportional to the PUF's delay
// parameters and the fitted values are the "model predicted soft responses"
// that the threshold scheme classifies. The PUF features already carry the
// bias term, so the fit has no separate intercept.
#pragma once

#include "linalg/least_squares.hpp"
#include "ml/dataset.hpp"

namespace xpuf::ml {

class LinearRegression {
 public:
  /// Fits coefficients to the dataset; throws on underdetermined input.
  void fit(const Dataset& data);

  /// Predicted value for one feature row.
  double predict(std::span<const double> features) const;

  /// Predicted values for all rows of a matrix.
  linalg::Vector predict(const linalg::Matrix& x) const;

  bool fitted() const { return !coefficients_.empty(); }
  const linalg::Vector& coefficients() const { return coefficients_; }
  double train_r_squared() const { return train_r_squared_; }

 private:
  linalg::Vector coefficients_;
  double train_r_squared_ = 0.0;
};

}  // namespace xpuf::ml
