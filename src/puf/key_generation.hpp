// PUF key generation via the code-offset fuzzy extractor.
//
// The other classic PUF application next to the paper's authentication use
// case: derive a stable secret key from noisy responses. Construction
// (Dodis et al. code-offset):
//   Gen:  pick a random message msg, c = BCH.encode(msg),
//         helper = response XOR c (public), key = SHA-256(msg).
//   Rep:  c' = response' XOR helper = c XOR e; BCH decodes e (<= t errors),
//         key = SHA-256(decoded msg).
// The response bits come from XOR-PUF evaluations on a fixed challenge
// list. The paper's contribution slots in directly: drawing the challenge
// list from the model-selected 100%-stable set collapses the error rate
// the code must absorb — bench_ext3_key_generation measures how much BCH
// strength (and helper-data leakage) that saves.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bch.hpp"
#include "crypto/sha256.hpp"
#include "puf/enrollment.hpp"
#include "sim/chip.hpp"

namespace xpuf::puf {

/// Public helper data: safe to store/transmit; reveals nothing about the
/// key beyond the code's redundancy (standard code-offset leakage bound).
struct HelperData {
  std::vector<Challenge> challenges;  ///< the fixed key-challenge list
  crypto::Bits offset;                ///< response XOR codeword
};

struct KeyGenConfig {
  unsigned bch_m = 7;  ///< code length n = 2^m - 1 (127)
  unsigned bch_t = 10; ///< correctable response-bit errors
};

struct KeyGenResult {
  crypto::Digest key{};   ///< 256-bit derived key
  HelperData helper;      ///< public reproduction data
};

struct KeyRepResult {
  bool ok = false;            ///< decoding succeeded
  crypto::Digest key{};       ///< reproduced key (when ok)
  std::size_t errors_corrected = 0;
};

class FuzzyExtractor {
 public:
  explicit FuzzyExtractor(const KeyGenConfig& config);

  /// The BCH code; each key consumes code().n() response bits.
  const crypto::BchCode& code() const { return code_; }

  /// Enrollment-time key generation from a chip: evaluates the challenge
  /// list once at the given corner, draws the random codeword from `rng`.
  /// `challenges` must contain exactly code().n() entries.
  KeyGenResult generate(const sim::XorPufChip& chip,
                        const std::vector<Challenge>& challenges,
                        const sim::Environment& env, Rng& rng) const;

  /// Field-time key reproduction from fresh (noisy) response bits.
  KeyRepResult reproduce(const sim::XorPufChip& chip, const HelperData& helper,
                         const sim::Environment& env, Rng& rng) const;

  /// Reproduction from explicit response bits (used by tests).
  KeyRepResult reproduce_from_bits(const crypto::Bits& response,
                                   const HelperData& helper) const;

 private:
  crypto::BchCode code_;

  crypto::Bits read_response(const sim::XorPufChip& chip,
                             const std::vector<Challenge>& challenges,
                             const sim::Environment& env, Rng& rng) const;
};

}  // namespace xpuf::puf
