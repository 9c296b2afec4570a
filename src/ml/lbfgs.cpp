#include "ml/lbfgs.hpp"

#include <cmath>
#include <deque>

#include "common/error.hpp"

namespace xpuf::ml {

namespace {

using linalg::Vector;

constexpr std::size_t kHistory = 10;          // stored (s, y) correction pairs
constexpr double kGradientTolerance = 1e-6;   // stop when ||g||_inf <= this
constexpr double kValueTolerance = 1e-10;     // stop on relative f decrease below this
constexpr std::size_t kMaxLineSearch = 40;    // function evaluations per line search
constexpr double kWolfeC1 = 1e-4;             // sufficient-decrease constant
constexpr double kWolfeC2 = 0.9;              // curvature constant

/// State shared by the line search: counts evaluations and evaluates
/// phi(alpha) = f(x + alpha d) together with phi'(alpha) = g . d.
struct LineFunction {
  const Objective& f;
  const Vector& x;
  const Vector& d;
  Vector xtrial;
  Vector gtrial;
  std::size_t* evaluations;

  double operator()(double alpha, double& dphi) {
    xtrial = x;
    linalg::axpy(alpha, d, xtrial);
    const double value = f(xtrial, gtrial);
    ++*evaluations;
    dphi = linalg::dot(gtrial, d);
    return value;
  }
};

/// Cubic interpolation of a step in [lo, hi] from endpoint values/slopes;
/// falls back to bisection when the cubic is degenerate or outside bounds.
double interpolate(double a_lo, double f_lo, double g_lo, double a_hi, double f_hi,
                   double g_hi) {
  const double d1 = g_lo + g_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi);
  const double disc = d1 * d1 - g_lo * g_hi;
  if (disc >= 0.0) {
    const double d2 = std::copysign(std::sqrt(disc), a_hi - a_lo);
    double cand = a_hi - (a_hi - a_lo) * (g_hi + d2 - d1) / (g_hi - g_lo + 2.0 * d2);
    const double lo = std::min(a_lo, a_hi), hi = std::max(a_lo, a_hi);
    const double margin = 0.1 * (hi - lo);
    if (std::isfinite(cand) && cand > lo + margin && cand < hi - margin) return cand;
  }
  return 0.5 * (a_lo + a_hi);
}

/// Strong-Wolfe line search (Nocedal & Wright Alg. 3.5/3.6). Returns the
/// accepted step, or 0 if none was found within the evaluation budget.
double line_search(LineFunction& phi, double f0, double dphi0) {
  const double c1 = kWolfeC1, c2 = kWolfeC2;
  double a_prev = 0.0, f_prev = f0, g_prev = dphi0;
  double alpha = 1.0;
  double a_lo = 0.0, f_lo = f0, g_lo = dphi0;
  double a_hi = 0.0, f_hi = 0.0, g_hi = 0.0;
  bool bracketed = false;
  std::size_t evals = 0;

  // Bracketing phase.
  while (evals < kMaxLineSearch) {
    double dphi;
    const double fval = phi(alpha, dphi);
    ++evals;
    if (!std::isfinite(fval)) {
      // Step into a non-finite region: shrink hard and retry.
      alpha *= 0.25;
      if (alpha < 1e-20) return 0.0;
      continue;
    }
    if (fval > f0 + c1 * alpha * dphi0 || (evals > 1 && fval >= f_prev)) {
      a_lo = a_prev; f_lo = f_prev; g_lo = g_prev;
      a_hi = alpha; f_hi = fval; g_hi = dphi;
      bracketed = true;
      break;
    }
    if (std::fabs(dphi) <= -c2 * dphi0) return alpha;  // strong Wolfe satisfied
    if (dphi >= 0.0) {
      a_lo = alpha; f_lo = fval; g_lo = dphi;
      a_hi = a_prev; f_hi = f_prev; g_hi = g_prev;
      bracketed = true;
      break;
    }
    a_prev = alpha; f_prev = fval; g_prev = dphi;
    alpha *= 2.0;
    if (alpha > 1e10) return a_prev;
  }
  if (!bracketed) return 0.0;

  // Zoom phase.
  while (evals < kMaxLineSearch) {
    const double a_j = interpolate(a_lo, f_lo, g_lo, a_hi, f_hi, g_hi);
    double dphi;
    const double fval = phi(a_j, dphi);
    ++evals;
    if (!std::isfinite(fval) || fval > f0 + c1 * a_j * dphi0 || fval >= f_lo) {
      a_hi = a_j; f_hi = fval; g_hi = dphi;
    } else {
      if (std::fabs(dphi) <= -c2 * dphi0) return a_j;
      if (dphi * (a_hi - a_lo) >= 0.0) {
        a_hi = a_lo; f_hi = f_lo; g_hi = g_lo;
      }
      a_lo = a_j; f_lo = fval; g_lo = dphi;
    }
    if (std::fabs(a_hi - a_lo) < 1e-16 * std::max(1.0, std::fabs(a_lo))) break;
  }
  // Budget exhausted: accept the best sufficient-decrease point if any.
  return (f_lo < f0 && a_lo > 0.0) ? a_lo : 0.0;
}

}  // namespace

LbfgsResult minimize_lbfgs(const Objective& f, Vector x0, const LbfgsOptions& options) {
  XPUF_REQUIRE(!x0.empty(), "L-BFGS needs a non-empty starting point");
  LbfgsResult res;
  const std::size_t n = x0.size();

  Vector x = std::move(x0);
  Vector g(n);
  double fx = f(x, g);
  res.evaluations = 1;
  if (!std::isfinite(fx) || !linalg::all_finite(g))
    throw NumericalError("L-BFGS: objective is non-finite at the starting point");

  std::deque<Vector> s_hist, y_hist;
  std::deque<double> rho_hist;
  Vector d(n), x_prev(n), g_prev(n);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    res.iterations = iter + 1;
    const double gnorm = linalg::norm_inf(g);
    if (gnorm <= kGradientTolerance) {
      res.converged = true;
      res.message = "gradient tolerance reached";
      break;
    }

    // Two-loop recursion: d = -H g.
    d = g;
    std::vector<double> alpha_coef(s_hist.size());
    for (std::size_t i = s_hist.size(); i > 0; --i) {
      const std::size_t k = i - 1;
      alpha_coef[k] = rho_hist[k] * linalg::dot(s_hist[k], d);
      linalg::axpy(-alpha_coef[k], y_hist[k], d);
    }
    if (!s_hist.empty()) {
      // Initial Hessian scaling gamma = s.y / y.y.
      const double sy = linalg::dot(s_hist.back(), y_hist.back());
      const double yy = linalg::dot(y_hist.back(), y_hist.back());
      if (yy > 0.0) d *= sy / yy;
    }
    for (std::size_t k = 0; k < s_hist.size(); ++k) {
      const double beta = rho_hist[k] * linalg::dot(y_hist[k], d);
      linalg::axpy(alpha_coef[k] - beta, s_hist[k], d);
    }
    d *= -1.0;

    double dphi0 = linalg::dot(g, d);
    if (dphi0 >= 0.0) {
      // Not a descent direction (stale curvature): restart with -g.
      s_hist.clear(); y_hist.clear(); rho_hist.clear();
      d = g;
      d *= -1.0;
      dphi0 = linalg::dot(g, d);
    }

    x_prev = x;
    g_prev = g;
    LineFunction phi{f, x_prev, d, Vector(n), Vector(n), &res.evaluations};
    const double alpha = line_search(phi, fx, dphi0);
    if (alpha == 0.0) {
      res.message = "line search failed to make progress";
      break;
    }
    x = x_prev;
    linalg::axpy(alpha, d, x);
    const double fx_new = f(x, g);
    ++res.evaluations;

    const double decrease = fx - fx_new;
    fx = fx_new;
    if (decrease >= 0.0 &&
        decrease <= kValueTolerance * std::max(1.0, std::fabs(fx))) {
      res.converged = true;
      res.message = "value tolerance reached";
      break;
    }

    // Update curvature history.
    Vector s = x;
    s -= x_prev;
    Vector yv = g;
    yv -= g_prev;
    const double sy = linalg::dot(s, yv);
    if (sy > 1e-12 * linalg::norm2(s) * linalg::norm2(yv)) {
      s_hist.push_back(std::move(s));
      y_hist.push_back(std::move(yv));
      rho_hist.push_back(1.0 / sy);
      if (s_hist.size() > kHistory) {
        s_hist.pop_front();
        y_hist.pop_front();
        rho_hist.pop_front();
      }
    }
  }

  if (res.message.empty()) res.message = "iteration limit reached";
  res.x = std::move(x);
  res.value = fx;
  res.gradient_norm = linalg::norm_inf(g);
  return res;
}

}  // namespace xpuf::ml
