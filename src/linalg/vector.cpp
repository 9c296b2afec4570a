#include "linalg/vector.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xpuf::linalg {

Vector& Vector::operator+=(const Vector& rhs) {
  XPUF_REQUIRE(size() == rhs.size(), "vector += dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  XPUF_REQUIRE(size() == rhs.size(), "vector -= dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  XPUF_REQUIRE(s != 0.0, "vector division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

double dot(const Vector& a, const Vector& b) { return dot(a.span(), b.span()); }

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

void axpy(double alpha, const Vector& x, Vector& y) {
  XPUF_REQUIRE(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

bool all_finite(const Vector& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace xpuf::linalg
