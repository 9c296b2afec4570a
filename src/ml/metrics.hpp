// Evaluation metrics for the attack and enrollment experiments.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/vector.hpp"

namespace xpuf::ml {

/// 2x2 confusion counts for binary labels (prediction rows, truth columns).
struct ConfusionMatrix {
  std::size_t true_positive = 0;
  std::size_t true_negative = 0;
  std::size_t false_positive = 0;
  std::size_t false_negative = 0;

  std::size_t total() const {
    return true_positive + true_negative + false_positive + false_negative;
  }
  double accuracy() const;
  double precision() const;  ///< TP / (TP + FP); 0 when undefined
  double recall() const;     ///< TP / (TP + FN); 0 when undefined
  double f1() const;         ///< harmonic mean; 0 when undefined
};

/// Fraction of equal entries in two 0/1 label vectors.
double accuracy(std::span<const double> predicted, std::span<const double> truth);

/// Confusion counts from 0/1 label vectors.
ConfusionMatrix confusion(std::span<const double> predicted, std::span<const double> truth);

/// Mean squared error.
double mse(std::span<const double> predicted, std::span<const double> truth);

/// Mean absolute error.
double mae(std::span<const double> predicted, std::span<const double> truth);

/// Binary cross-entropy of probabilities in (0,1) against 0/1 targets,
/// clipped at 1e-12 for numerical safety.
double log_loss(std::span<const double> probabilities, std::span<const double> truth);

/// Coefficient of determination (1 - RSS/TSS); 0 when the truth is constant.
double r_squared(std::span<const double> predicted, std::span<const double> truth);

}  // namespace xpuf::ml
