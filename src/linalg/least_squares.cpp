#include "linalg/least_squares.hpp"

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"

namespace xpuf::linalg {

namespace {

LeastSquaresResult finish(const Matrix& a, const Vector& b, Vector x) {
  LeastSquaresResult res;
  Vector pred = matvec(a, x);
  double rss = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double e = pred[i] - b[i];
    rss += e * e;
  }
  double mean_b = 0.0;
  for (double v : b) mean_b += v;
  mean_b /= static_cast<double>(b.size());
  double tss = 0.0;
  for (double v : b) tss += (v - mean_b) * (v - mean_b);
  res.r_squared = tss > 0.0 ? 1.0 - rss / tss : 0.0;
  res.coefficients = std::move(x);
  return res;
}

}  // namespace

LeastSquaresResult solve_least_squares(const Matrix& a, const Vector& b) {
  XPUF_REQUIRE(a.rows() == b.size(), "least squares: row/target mismatch");
  XPUF_REQUIRE(a.rows() >= a.cols(), "least squares: underdetermined system");
  try {
    return finish(a, b, Cholesky(gram(a)).solve(matvec_transposed(a, b)));
  } catch (const NumericalError&) {
    return finish(a, b, QR(a).solve(b));
  }
}

}  // namespace xpuf::linalg
