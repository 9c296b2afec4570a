#include "puf/model.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

double ArbiterPufModel::predict_raw(const Challenge& challenge) const {
  XPUF_REQUIRE(!empty(), "predict on an empty model");
  XPUF_REQUIRE(challenge.size() + 1 == weights_.size(), "challenge length mismatch");
  // Inline the feature transform without materializing phi, but accumulate
  // in ASCENDING index order: phi entries are exact +/-1, so summing
  // w_0 phi_0, w_1 phi_1, ... reproduces the span/parity-tile accumulation order
  // bit for bit — the batched evaluation core's equivalence contract.
  // phi_i is (-1)^(parity of c_i..c_{k-1}): start from the full parity and
  // drop c_i after using phi_i (sim::feature_fill's sign-bit contract).
  std::uint64_t parity = 0;
  for (const auto bit : challenge) parity ^= static_cast<std::uint64_t>(bit != 0);
  double sum = 0.0;
  for (std::size_t i = 0; i < challenge.size(); ++i) {
    sum += weights_[i] * sim::parity_sign(parity);
    parity ^= static_cast<std::uint64_t>(challenge[i] != 0);
  }
  return sum + weights_[challenge.size()];  // constant feature last
}

double ArbiterPufModel::predict_raw(std::span<const double> phi) const {
  XPUF_REQUIRE(!empty(), "predict on an empty model");
  XPUF_REQUIRE(phi.size() == weights_.size(), "feature length mismatch");
  return linalg::dot(weights_.span(), phi);
}

bool ArbiterPufModel::predict_response(const Challenge& challenge) const {
  return predict_raw(challenge) > 0.5;
}

bool ArbiterPufModel::predict_response(std::span<const double> phi) const {
  return predict_raw(phi) > 0.5;
}

const ArbiterPufModel& XorPufModel::puf(std::size_t i) const {
  XPUF_REQUIRE(i < pufs_.size(), "PUF index out of range");
  return pufs_[i];
}

bool XorPufModel::predict_response(const Challenge& challenge) const {
  XPUF_REQUIRE(!pufs_.empty(), "predict on an empty XOR model");
  bool out = false;
  for (const auto& p : pufs_) out ^= p.predict_response(challenge);
  return out;
}

}  // namespace xpuf::puf
