// Galois-field GF(2^m) arithmetic with log/antilog tables.
//
// Substrate for the BCH error-correcting codes used by the PUF key
// generator: noisy PUF responses cannot feed a KDF directly, so the code-
// offset fuzzy extractor corrects them with a BCH code over GF(2^m).
#pragma once

#include <cstdint>
#include <vector>

namespace xpuf::crypto {

/// GF(2^m) for 2 <= m <= 16, built over a standard primitive polynomial.
/// Elements are represented as integers in [0, 2^m); 0 is the field zero.
class GF2m {
 public:
  explicit GF2m(unsigned m);

  unsigned m() const { return m_; }
  /// Field size q = 2^m.
  std::uint32_t size() const { return size_; }
  /// Multiplicative-group order q - 1.
  std::uint32_t order() const { return size_ - 1; }

  /// alpha^k for any integer exponent (reduced mod q-1).
  std::uint32_t alpha_pow(std::int64_t k) const;

  /// Discrete log base alpha; precondition x != 0.
  std::uint32_t log(std::uint32_t x) const;

  /// Field operations. add == subtract == XOR in characteristic 2.
  static std::uint32_t add(std::uint32_t a, std::uint32_t b) { return a ^ b; }
  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const;
  std::uint32_t inv(std::uint32_t a) const;  ///< precondition a != 0
  std::uint32_t div(std::uint32_t a, std::uint32_t b) const;  ///< b != 0
  std::uint32_t pow(std::uint32_t a, std::int64_t k) const;

 private:
  unsigned m_;
  std::uint32_t size_;
  std::uint32_t poly_;
  std::vector<std::uint32_t> exp_;  // exp_[k] = alpha^k, doubled for wrap
  std::vector<std::uint32_t> log_;
};

/// Polynomials over GF(2^m), coefficient vectors with p[i] the coefficient
/// of x^i. Normalized (no trailing zeros except the zero polynomial).
class GFPoly {
 public:
  GFPoly() = default;
  explicit GFPoly(std::vector<std::uint32_t> coefficients);

  static GFPoly zero() { return GFPoly(); }
  static GFPoly one() { return GFPoly({1}); }

  bool is_zero() const { return coeff_.empty(); }
  /// Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeff_.size()) - 1; }
  std::uint32_t coefficient(std::size_t i) const {
    return i < coeff_.size() ? coeff_[i] : 0u;
  }
  const std::vector<std::uint32_t>& coefficients() const { return coeff_; }

  GFPoly times(const GFPoly& rhs, const GF2m& field) const;
  /// Remainder of *this modulo `divisor` (divisor != 0).
  GFPoly mod(const GFPoly& divisor, const GF2m& field) const;
  /// Evaluation at a field point (Horner).
  std::uint32_t evaluate(std::uint32_t x, const GF2m& field) const;

  bool operator==(const GFPoly& rhs) const = default;

 private:
  std::vector<std::uint32_t> coeff_;
  void normalize();
};

}  // namespace xpuf::crypto
