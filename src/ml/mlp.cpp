#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace xpuf::ml {

namespace {
// Fixed row-chunk size for the parallel elementwise/loss passes; constant so
// the partial-sum grid (and every result bit) is thread-count independent.
constexpr std::size_t kRowChunk = 256;

/// Copies one layer's weight block out of the flat parameter vector into an
/// (out x in) row-major matrix so forward/backward are plain GEMM calls.
linalg::Matrix weight_matrix(const linalg::Vector& params, std::size_t offset,
                             std::size_t out, std::size_t in) {
  linalg::Matrix w(out, in);
  const double* src = params.data() + offset;
  for (std::size_t i = 0; i < out; ++i)
    for (std::size_t j = 0; j < in; ++j) w(i, j) = src[i * in + j];
  return w;
}
}  // namespace

Mlp::Mlp(std::size_t n_inputs, MlpOptions options) : options_(std::move(options)) {
  XPUF_REQUIRE(n_inputs > 0, "Mlp needs at least one input");
  layer_sizes_.push_back(n_inputs);
  for (std::size_t h : options_.hidden_layers) {
    XPUF_REQUIRE(h > 0, "Mlp hidden layer of width zero");
    layer_sizes_.push_back(h);
  }
  layer_sizes_.push_back(1);  // single logit output

  std::size_t total = 0;
  for (std::size_t l = 1; l < layer_sizes_.size(); ++l) {
    w_offset_.push_back(total);
    total += layer_sizes_[l] * layer_sizes_[l - 1];
    b_offset_.push_back(total);
    total += layer_sizes_[l];
  }
  params_ = linalg::Vector(total);
  initialize_weights();
}

void Mlp::initialize_weights() {
  Rng rng(options_.seed);
  params_.fill(0.0);
  for (std::size_t l = 1; l < layer_sizes_.size(); ++l) {
    const std::size_t fan_in = layer_sizes_[l - 1];
    const std::size_t fan_out = layer_sizes_[l];
    const double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    const std::size_t base = w_offset_[l - 1];
    for (std::size_t i = 0; i < fan_out * fan_in; ++i)
      params_[base + i] = rng.uniform(-bound, bound);
    // Biases start at zero (b_offset_ region already cleared).
  }
}

double Mlp::activate(double z) const {
  switch (options_.activation) {
    case Activation::kTanh: return std::tanh(z);
    case Activation::kRelu: return z > 0.0 ? z : 0.0;
  }
  return z;
}

double Mlp::activate_derivative(double activated) const {
  switch (options_.activation) {
    case Activation::kTanh: return 1.0 - activated * activated;
    case Activation::kRelu: return activated > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

void Mlp::forward(const linalg::Matrix& x, const linalg::Vector& params,
                  std::vector<linalg::Matrix>& activations) const {
  const std::size_t n = x.rows();
  const std::size_t layers = layer_sizes_.size();
  activations.assign(layers, linalg::Matrix{});
  activations[0] = x;
  for (std::size_t l = 1; l < layers; ++l) {
    const std::size_t in = layer_sizes_[l - 1];
    const std::size_t out = layer_sizes_[l];
    const double* b = params.data() + b_offset_[l - 1];
    const bool is_output = (l == layers - 1);
    // z = prev . W^T as a transposed GEMM (W rows are contiguous), then a
    // parallel bias-plus-activation sweep.
    const linalg::Matrix w = weight_matrix(params, w_offset_[l - 1], out, in);
    linalg::Matrix a = linalg::matmul_nt(activations[l - 1], w);
    parallel_for(n, kRowChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t r = begin; r < end; ++r) {
        double* arow = a.row(r);
        for (std::size_t i = 0; i < out; ++i) {
          const double z = arow[i] + b[i];
          arow[i] = is_output ? z : activate(z);
        }
      }
    });
    activations[l] = std::move(a);
  }
}

double Mlp::loss_and_gradient(const linalg::Matrix& x, const linalg::Vector& y,
                              const linalg::Vector& params, linalg::Vector& grad) const {
  XPUF_REQUIRE(x.cols() == layer_sizes_.front(), "Mlp input-width mismatch");
  XPUF_REQUIRE(x.rows() == y.size(), "Mlp sample/target mismatch");
  XPUF_REQUIRE(params.size() == params_.size(), "Mlp parameter-count mismatch");
  const std::size_t n = x.rows();
  const std::size_t layers = layer_sizes_.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  std::vector<linalg::Matrix> a;
  forward(x, params, a);

  grad.resize(params.size());
  grad.fill(0.0);

  // BCE-with-logits loss (chunked deterministic reduction) and output delta.
  linalg::Matrix delta(n, 1);
  double loss = parallel_reduce(
      n, kRowChunk, 0.0,
      [&](double& acc, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const double z = a[layers - 1](r, 0);
          const double t = y[r] >= 0.5 ? 1.0 : 0.0;
          acc += t > 0.5 ? softplus(-z) : softplus(z);
          delta(r, 0) = (sigmoid(z) - t) * inv_n;
        }
      },
      [](double& acc, double&& part) { acc += part; });
  loss *= inv_n;

  // Backward pass as matrix products: dW = delta^T . prev is the sharded
  // gradient accumulation (matmul_tn combines fixed row-chunk partials in
  // chunk order), and the propagated delta is a row-parallel GEMM followed
  // by the activation-derivative sweep.
  for (std::size_t l = layers - 1; l >= 1; --l) {
    const std::size_t in = layer_sizes_[l - 1];
    const std::size_t out = layer_sizes_[l];
    double* gw = grad.data() + w_offset_[l - 1];
    double* gb = grad.data() + b_offset_[l - 1];
    const linalg::Matrix& prev = a[l - 1];

    const linalg::Matrix dw = linalg::matmul_tn(delta, prev);  // out x in
    std::copy(dw.raw().begin(), dw.raw().end(), gw);
    // Bias gradient: column sums of delta. O(n * out) — cheap next to the
    // GEMMs, and serial accumulation keeps the order fixed.
    for (std::size_t r = 0; r < n; ++r) {
      const double* drow = delta.row(r);
      for (std::size_t i = 0; i < out; ++i) gb[i] += drow[i];
    }

    if (l > 1) {
      const linalg::Matrix w = weight_matrix(params, w_offset_[l - 1], out, in);
      linalg::Matrix next_delta = linalg::matmul_blocked(delta, w);  // n x in
      parallel_for(n, kRowChunk,
                   [&](std::size_t begin, std::size_t end, std::size_t) {
                     for (std::size_t r = begin; r < end; ++r) {
                       const double* prow = prev.row(r);
                       double* ndrow = next_delta.row(r);
                       for (std::size_t j = 0; j < in; ++j)
                         ndrow[j] *= activate_derivative(prow[j]);
                     }
                   });
      delta = std::move(next_delta);
    }
  }

  // L2 penalty on weights only (not biases), matching scikit-learn's alpha.
  if (options_.l2 > 0.0) {
    for (std::size_t l = 1; l < layers; ++l) {
      const std::size_t count = layer_sizes_[l] * layer_sizes_[l - 1];
      const std::size_t base = w_offset_[l - 1];
      for (std::size_t i = 0; i < count; ++i) {
        loss += 0.5 * options_.l2 * params[base + i] * params[base + i];
        grad[base + i] += options_.l2 * params[base + i];
      }
    }
  }
  return loss;
}

LbfgsResult Mlp::fit(const Dataset& data, const LbfgsOptions& options) {
  XPUF_TRACE_SPAN("ml.mlp_fit");
  XPUF_REQUIRE(!data.empty(), "Mlp::fit on empty dataset");
  Objective obj = [this, &data](const linalg::Vector& p, linalg::Vector& g) {
    return loss_and_gradient(data.x, data.y, p, g);
  };
  LbfgsResult res = minimize_lbfgs(obj, params_, options);
  params_ = res.x;
  auto& registry = MetricsRegistry::global();
  static Counter& iterations = registry.counter("ml.lbfgs_iterations");
  static Counter& evaluations = registry.counter("ml.objective_evaluations");
  iterations.add(res.iterations);
  evaluations.add(res.evaluations);
  return res;
}

double Mlp::predict_probability(std::span<const double> features) const {
  XPUF_REQUIRE(features.size() == layer_sizes_.front(), "Mlp input-width mismatch");
  linalg::Matrix x(1, features.size());
  for (std::size_t c = 0; c < features.size(); ++c) x(0, c) = features[c];
  std::vector<linalg::Matrix> a;
  forward(x, params_, a);
  return sigmoid(a.back()(0, 0));
}

linalg::Vector Mlp::predict_probability(const linalg::Matrix& x) const {
  XPUF_REQUIRE(x.cols() == layer_sizes_.front(), "Mlp input-width mismatch");
  std::vector<linalg::Matrix> a;
  forward(x, params_, a);
  linalg::Vector out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = sigmoid(a.back()(r, 0));
  return out;
}

linalg::Vector Mlp::predict(const linalg::Matrix& x) const {
  linalg::Vector p = predict_probability(x);
  for (double& v : p) v = v >= 0.5 ? 1.0 : 0.0;
  return p;
}

}  // namespace xpuf::ml
