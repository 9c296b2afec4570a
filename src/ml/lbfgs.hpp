// Limited-memory BFGS minimizer with a strong-Wolfe line search.
//
// This is the optimizer the paper uses (via scikit-learn) to train both the
// multi-layer-perceptron attack model and the logistic-regression baseline.
// It is a general unconstrained minimizer over a flat parameter vector.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "linalg/vector.hpp"

namespace xpuf::ml {

/// Objective callback: returns f(x) and writes the gradient into `grad`
/// (pre-sized to x.size()).
using Objective = std::function<double(const linalg::Vector& x, linalg::Vector& grad)>;

/// The iteration cap is the one knob callers set. The rest are fixed in
/// lbfgs.cpp: 10 stored (s, y) pairs, stop at ||g||_inf <= 1e-6 or a
/// relative f decrease below 1e-10, and a strong-Wolfe line search
/// (c1 = 1e-4, c2 = 0.9) of at most 40 evaluations.
struct LbfgsOptions {
  std::size_t max_iterations = 200;
};

struct LbfgsResult {
  linalg::Vector x;             ///< final iterate
  double value = 0.0;           ///< f at the final iterate
  double gradient_norm = 0.0;   ///< ||g||_inf at the final iterate
  std::size_t iterations = 0;   ///< outer iterations taken
  std::size_t evaluations = 0;  ///< objective evaluations (incl. line search)
  bool converged = false;       ///< hit a tolerance (vs. iteration cap/stall)
  std::string message;          ///< human-readable stop reason
};

/// Minimizes the objective starting from x0. Throws NumericalError only if
/// the objective returns non-finite values at the starting point; later
/// non-finite trial points are handled by shrinking the step.
LbfgsResult minimize_lbfgs(const Objective& f, linalg::Vector x0,
                           const LbfgsOptions& options = {});

}  // namespace xpuf::ml
