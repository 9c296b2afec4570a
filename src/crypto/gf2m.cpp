#include "crypto/gf2m.hpp"

#include "common/error.hpp"

namespace xpuf::crypto {

namespace {
/// Standard primitive polynomials for GF(2^m), bit representation including
/// the degree-m term (e.g. m=4: x^4 + x + 1 = 0b10011 = 0x13).
constexpr std::uint32_t kPrimitivePoly[17] = {
    0,      0,      0x7,    0xB,    0x13,   0x25,   0x43,   0x89,  0x11D,
    0x211,  0x409,  0x805,  0x1053, 0x201B, 0x4443, 0x8003, 0x1100B};
}  // namespace

GF2m::GF2m(unsigned m) : m_(m) {
  XPUF_REQUIRE(m >= 2 && m <= 16, "GF(2^m) supports 2 <= m <= 16");
  size_ = 1u << m;
  poly_ = kPrimitivePoly[m];
  exp_.assign(2 * (size_ - 1), 0);
  log_.assign(size_, 0);
  std::uint32_t x = 1;
  for (std::uint32_t k = 0; k < size_ - 1; ++k) {
    exp_[k] = x;
    log_[x] = k;
    x <<= 1;
    if (x & size_) x ^= poly_;
  }
  // Duplicate for index wrap so mul never reduces mod order explicitly.
  for (std::uint32_t k = 0; k < size_ - 1; ++k) exp_[size_ - 1 + k] = exp_[k];
}

std::uint32_t GF2m::alpha_pow(std::int64_t k) const {
  const auto ord = static_cast<std::int64_t>(order());
  std::int64_t r = k % ord;
  if (r < 0) r += ord;
  return exp_[static_cast<std::size_t>(r)];
}

std::uint32_t GF2m::log(std::uint32_t x) const {
  XPUF_REQUIRE(x != 0 && x < size_, "log of zero or out-of-field element");
  return log_[x];
}

std::uint32_t GF2m::mul(std::uint32_t a, std::uint32_t b) const {
  if (a == 0 || b == 0) return 0;
  return exp_[log_[a] + log_[b]];
}

std::uint32_t GF2m::inv(std::uint32_t a) const {
  XPUF_REQUIRE(a != 0, "inverse of zero");
  return exp_[order() - log_[a]];
}

std::uint32_t GF2m::div(std::uint32_t a, std::uint32_t b) const {
  XPUF_REQUIRE(b != 0, "division by zero");
  if (a == 0) return 0;
  return exp_[log_[a] + order() - log_[b]];
}

std::uint32_t GF2m::pow(std::uint32_t a, std::int64_t k) const {
  if (a == 0) {
    XPUF_REQUIRE(k > 0, "0^k undefined for k <= 0");
    return 0;
  }
  const auto ord = static_cast<std::int64_t>(order());
  std::int64_t e = (static_cast<std::int64_t>(log_[a]) * (k % ord)) % ord;
  if (e < 0) e += ord;
  return exp_[static_cast<std::size_t>(e)];
}

GFPoly::GFPoly(std::vector<std::uint32_t> coefficients) : coeff_(std::move(coefficients)) {
  normalize();
}

void GFPoly::normalize() {
  while (!coeff_.empty() && coeff_.back() == 0) coeff_.pop_back();
}

GFPoly GFPoly::times(const GFPoly& rhs, const GF2m& field) const {
  if (is_zero() || rhs.is_zero()) return zero();
  std::vector<std::uint32_t> out(coeff_.size() + rhs.coeff_.size() - 1, 0);
  for (std::size_t i = 0; i < coeff_.size(); ++i) {
    if (coeff_[i] == 0) continue;
    for (std::size_t j = 0; j < rhs.coeff_.size(); ++j)
      out[i + j] ^= field.mul(coeff_[i], rhs.coeff_[j]);
  }
  return GFPoly(std::move(out));
}

GFPoly GFPoly::mod(const GFPoly& divisor, const GF2m& field) const {
  XPUF_REQUIRE(!divisor.is_zero(), "polynomial modulo zero");
  std::vector<std::uint32_t> rem = coeff_;
  const int dd = divisor.degree();
  const std::uint32_t lead_inv = field.inv(divisor.coeff_.back());
  while (static_cast<int>(rem.size()) - 1 >= dd) {
    const std::uint32_t top = rem.back();
    if (top != 0) {
      const std::uint32_t factor = field.mul(top, lead_inv);
      const std::size_t shift = rem.size() - 1 - static_cast<std::size_t>(dd);
      for (std::size_t i = 0; i <= static_cast<std::size_t>(dd); ++i)
        rem[shift + i] ^= field.mul(factor, divisor.coeff_[i]);
    }
    rem.pop_back();
    while (!rem.empty() && rem.back() == 0 &&
           static_cast<int>(rem.size()) - 1 >= dd)
      rem.pop_back();
  }
  return GFPoly(std::move(rem));
}

std::uint32_t GFPoly::evaluate(std::uint32_t x, const GF2m& field) const {
  std::uint32_t acc = 0;
  for (std::size_t i = coeff_.size(); i > 0; --i)
    acc = field.mul(acc, x) ^ coeff_[i - 1];
  return acc;
}

}  // namespace xpuf::crypto
