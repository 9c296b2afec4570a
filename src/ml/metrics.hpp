// Evaluation metrics for the attack and enrollment experiments.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/vector.hpp"

namespace xpuf::ml {

/// Fraction of equal entries in two 0/1 label vectors.
double accuracy(std::span<const double> predicted, std::span<const double> truth);

/// Coefficient of determination (1 - RSS/TSS); 0 when the truth is constant.
double r_squared(std::span<const double> predicted, std::span<const double> truth);

}  // namespace xpuf::ml
