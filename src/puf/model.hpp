// Analytic (server/attacker-side) PUF models.
//
// An ArbiterPufModel is a learned weight vector in the linear additive delay
// model; an XorPufModel XORs the sign predictions of n of them. During
// enrollment the server fits one ArbiterPufModel per internal PUF from soft
// responses (paper Sec 4); during authentication it predicts responses and
// stability classes from these models alone — it never touches the device
// internals again.
#pragma once

#include <vector>

#include "linalg/vector.hpp"
#include "puf/transform.hpp"

namespace xpuf::puf {

class ArbiterPufModel {
 public:
  ArbiterPufModel() = default;
  explicit ArbiterPufModel(linalg::Vector weights) : weights_(std::move(weights)) {}

  bool empty() const { return weights_.empty(); }
  std::size_t stages() const { return weights_.empty() ? 0 : weights_.size() - 1; }
  const linalg::Vector& weights() const { return weights_; }

  /// Raw linear prediction w . phi(c). When the model was fit by regressing
  /// soft responses on phi, this is the paper's "model predicted soft
  /// response": centered at 0.5 but with a wider range whose excess encodes
  /// the delay-difference magnitude (Fig 8).
  double predict_raw(const Challenge& challenge) const;

  /// Same from a precomputed feature row.
  double predict_raw(std::span<const double> phi) const;

  /// Hard response prediction: raw value above the 0.5 center.
  bool predict_response(const Challenge& challenge) const;
  bool predict_response(std::span<const double> phi) const;

 private:
  linalg::Vector weights_;
};

class XorPufModel {
 public:
  XorPufModel() = default;
  explicit XorPufModel(std::vector<ArbiterPufModel> pufs) : pufs_(std::move(pufs)) {}

  std::size_t puf_count() const { return pufs_.size(); }
  const ArbiterPufModel& puf(std::size_t i) const;

  /// XOR of the n individual hard predictions.
  bool predict_response(const Challenge& challenge) const;

 private:
  std::vector<ArbiterPufModel> pufs_;
};

}  // namespace xpuf::puf
