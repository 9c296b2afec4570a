// Multi-layer perceptron binary classifier trained by full-batch L-BFGS
// (the paper's attack model: 3 hidden layers of 35/25/25 units, L-BFGS
// optimizer, transformed challenge vectors in, 1-bit XOR responses out).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "ml/dataset.hpp"
#include "ml/lbfgs.hpp"

namespace xpuf::ml {

enum class Activation { kTanh, kRelu };

struct MlpOptions {
  /// Hidden layer widths; the paper's attack uses {35, 25, 25}.
  std::vector<std::size_t> hidden_layers = {35, 25, 25};
  Activation activation = Activation::kRelu;  ///< scikit-learn's default
  double l2 = 1e-5;                           ///< weight penalty (alpha)
  std::uint64_t seed = 1;                     ///< weight-init seed
};

/// Feed-forward network with a single logit output and sigmoid/BCE loss.
/// Parameters live in one flat vector so generic optimizers can drive it.
class Mlp {
 public:
  Mlp(std::size_t n_inputs, MlpOptions options = {});

  // Test hook: the gradient checks of test_mlp and test_parallel read the
  // weights.  xpuf-lint: allow(orphan-symbol)
  const linalg::Vector& parameters() const { return params_; }

  /// Re-randomizes weights (Glorot-uniform) with the stored seed.
  void initialize_weights();

  /// Mean BCE loss (+ L2) over a batch and its gradient w.r.t. `params`
  /// (evaluated at `params`, which may differ from the stored parameters).
  double loss_and_gradient(const linalg::Matrix& x, const linalg::Vector& y,
                           const linalg::Vector& params, linalg::Vector& grad) const;

  /// Full-batch L-BFGS training from the current weights.
  LbfgsResult fit(const Dataset& data, const LbfgsOptions& options = {});

  /// P(label == 1 | features) for one sample.
  double predict_probability(std::span<const double> features) const;

  /// Probabilities for every row.
  linalg::Vector predict_probability(const linalg::Matrix& x) const;

  /// Hard 0/1 labels at threshold 0.5.
  linalg::Vector predict(const linalg::Matrix& x) const;

  std::size_t n_inputs() const { return layer_sizes_.front(); }

 private:
  MlpOptions options_;
  std::vector<std::size_t> layer_sizes_;  // input, hidden..., 1
  linalg::Vector params_;

  // Offsets of each layer's weight block / bias block in the flat vector.
  std::vector<std::size_t> w_offset_;
  std::vector<std::size_t> b_offset_;

  /// Forward pass over a batch; fills per-layer activations (a[0] = x).
  void forward(const linalg::Matrix& x, const linalg::Vector& params,
               std::vector<linalg::Matrix>& activations) const;

  double activate(double z) const;
  double activate_derivative(double activated) const;
};

}  // namespace xpuf::ml
