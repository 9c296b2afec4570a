// Parity-feature transform of arbiter-PUF challenges.
//
// The linear additive delay model predicts the arbiter delay difference as
// delta = w . phi(c) with phi_i(c) = prod_{j >= i} (1 - 2 c_j) and a
// constant phi_{k+1} = 1. This transform is the standard input encoding for
// every model in the paper (enrollment regression and modeling attacks).
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "sim/device.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

using sim::Challenge;
using sim::random_challenge;

/// Canonical batch generator (shared with ChipTester::random_challenges).
using sim::random_challenges;

/// phi(c): length challenge.size() + 1, entries in {-1, +1}, last entry 1.
linalg::Vector feature_vector(const Challenge& challenge);

/// Writes phi(c) into a caller-provided buffer (length stages + 1); the hot
/// path for million-challenge sweeps.
void feature_vector_into(const Challenge& challenge, double* out);

/// Stacks phi rows for a batch of challenges into an n x (k+1) matrix.
linalg::Matrix feature_matrix(const std::vector<Challenge>& challenges);

/// Inverse direction used by tests: recovers the challenge from its feature
/// vector (phi is a bijection given phi_{k+1} = 1).
Challenge challenge_from_features(const linalg::Vector& phi);

}  // namespace xpuf::puf
