// Binary BCH error-correcting codes (encode + Berlekamp-Massey decode).
//
// The PUF fuzzy extractor corrects the residual noise of key-generation
// responses with a t-error-correcting BCH code of length n = 2^m - 1. The
// reproduced paper's stable-challenge selection slashes the response error
// rate, which directly shrinks the t (and helper-data leakage) this code
// must provide — quantified in bench_ext3_key_generation.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/gf2m.hpp"

namespace xpuf::crypto {

/// Bits are std::uint8_t 0/1, index i = coefficient of x^i.
using Bits = std::vector<std::uint8_t>;

class BchCode {
 public:
  /// Primitive binary BCH code of length n = 2^m - 1 with designed
  /// error-correcting capability t (designed distance 2t + 1). Throws if the
  /// generator consumes the whole length (k would be <= 0).
  BchCode(unsigned m, unsigned t);

  std::size_t n() const { return n_; }  ///< codeword length
  std::size_t k() const { return k_; }  ///< message length
  unsigned t() const { return t_; }     ///< correctable errors
  // Test hook: test_bch checks the generator polynomial.  xpuf-lint: allow(orphan-symbol)
  const GFPoly& generator() const { return generator_; }

  /// Systematic encoding: the message occupies the high-order positions
  /// [n-k, n); parity fills [0, n-k).
  Bits encode(const Bits& message) const;

  struct DecodeResult {
    bool ok = false;            ///< decoding succeeded (<= t errors)
    Bits codeword;              ///< corrected codeword (when ok)
    Bits message;               ///< extracted systematic message (when ok)
    std::size_t errors_corrected = 0;
  };

  /// Decodes a received word of length n; corrects up to t bit errors.
  DecodeResult decode(const Bits& received) const;

 private:
  GF2m field_;
  unsigned t_;
  std::size_t n_;
  std::size_t k_;
  GFPoly generator_;
};

}  // namespace xpuf::crypto
