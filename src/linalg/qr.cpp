#include "linalg/qr.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xpuf::linalg {

QR::QR(const Matrix& a) : qr_(a), m_(a.rows()), n_(a.cols()) {
  XPUF_REQUIRE(m_ >= n_, "QR expects a tall (m >= n) matrix");
  tau_.assign(n_, 0.0);
  for (std::size_t k = 0; k < n_; ++k) {
    // Householder vector for column k (rows k..m-1), stored with implicit
    // leading 1; R's diagonal entry replaces qr_(k, k).
    double norm = 0.0;
    for (std::size_t i = k; i < m_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    // Normalize so v[k] == 1.
    for (std::size_t i = k + 1; i < m_; ++i) qr_(i, k) /= v0;
    tau_[k] = -v0 / alpha;  // tau = 2 / (v^T v) with v[k] = 1 scaling
    qr_(k, k) = alpha;
    // Apply reflector to the remaining columns.
    for (std::size_t j = k + 1; j < n_; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * qr_(i, j);
      s *= tau_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m_; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

Vector QR::apply_qt(const Vector& b) const {
  XPUF_REQUIRE(b.size() == m_, "apply_qt dimension mismatch");
  Vector y = b;
  for (std::size_t k = 0; k < n_; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * y[i];
    s *= tau_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m_; ++i) y[i] -= s * qr_(i, k);
  }
  return y;
}

Vector QR::solve(const Vector& b) const {
  Vector y = apply_qt(b);
  // Rank test relative to the largest diagonal of R: a diagonal entry that
  // is ~eps of the largest signals numerical rank deficiency.
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n_; ++i) max_diag = std::max(max_diag, std::fabs(qr_(i, i)));
  const double tol = std::max(1e-300, 1e-12 * max_diag);
  Vector x(n_);
  for (std::size_t ii = n_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double d = qr_(i, i);
    if (std::fabs(d) < tol)
      throw NumericalError("QR solve: rank-deficient matrix (zero diagonal in R)");
    double s = y[i];
    for (std::size_t j = i + 1; j < n_; ++j) s -= qr_(i, j) * x[j];
    x[i] = s / d;
  }
  return x;
}

Matrix QR::r() const {
  Matrix r(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = i; j < n_; ++j) r(i, j) = qr_(i, j);
  return r;
}

}  // namespace xpuf::linalg
