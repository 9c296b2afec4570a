// Supervised datasets (feature matrix + target vector) with the split and
// shuffle operations the attack/enrollment experiments need.
#pragma once

#include <cstddef>
#include <utility>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace xpuf::ml {

/// Row-sample dataset: X is n_samples x n_features, y is length n_samples.
/// Targets are task-dependent: soft responses in [0,1] for regression,
/// 0/1 labels for classification.
struct Dataset {
  linalg::Matrix x;
  linalg::Vector y;

  std::size_t size() const { return x.rows(); }
  std::size_t features() const { return x.cols(); }
  bool empty() const { return x.rows() == 0; }

  /// Appends one sample in amortized O(n_features); the first append fixes
  /// the feature count.
  void add(std::span<const double> features_row, double target);

  /// Pre-reserves storage for n_samples rows of n_features each, fixing the
  /// feature count if the dataset is still empty. Optional — add() already
  /// grows geometrically — but avoids growth copies when the count is known.
  void reserve(std::size_t n_samples, std::size_t n_features);

  /// Returns the subset given by row indices (copies).
  Dataset subset(std::span<const std::size_t> indices) const;

  /// First-n / remainder split without shuffling (the paper's experiments
  /// shuffle challenges up front, so head splits stay unbiased).
  std::pair<Dataset, Dataset> head_split(std::size_t n_train) const;

  /// In-place row shuffle (features and targets together).
  void shuffle(Rng& rng);
};

}  // namespace xpuf::ml
