#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace xpuf {

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  XPUF_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_below(std::uint64_t n) {
  XPUF_REQUIRE(n > 0, "uniform_below(0) is undefined");
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method: deterministic across platforms and accurate in
  // the tails (unlike table-driven methods truncated for speed).
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::normal(double mean, double stddev) {
  XPUF_REQUIRE(stddev >= 0.0, "normal() needs a non-negative stddev");
  return mean + stddev * normal();
}

std::uint64_t Rng::binomial_inversion(std::uint64_t n, double p) {
  const double u = uniform();
  // Zero-count exit, exact: (1-p)^n >= 1 - n p (Bernoulli's inequality), and
  // the computed pmf(0) below sits within a few ulp of (1-p)^n, far inside
  // the 2^-40 margin — so whenever u clears this bound the walk below would
  // stop at k = 0 too. It skips log1p/exp for the common all-stable cell.
  if (u <= 1.0 - static_cast<double>(n) * p - 0x1p-40) return 0;
  // CDF inversion with the pmf recurrence
  //   pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
  // Exact starting point pmf(0) = (1-p)^n via expm1-safe log1p, so the
  // all-zeros probability that defines "100% stable" is correct.
  const double log_q = std::log1p(-p);
  double pmf = std::exp(static_cast<double>(n) * log_q);
  double cdf = pmf;
  const double odds = p / (1.0 - p);
  std::uint64_t k = 0;
  while (u > cdf && k < n) {
    pmf *= static_cast<double>(n - k) / static_cast<double>(k + 1) * odds;
    cdf += pmf;
    ++k;
    // Guard against pmf underflow stalling the walk in the far tail.
    if (pmf < 1e-300 && cdf < u) return k;
  }
  return k;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  XPUF_REQUIRE(p >= 0.0 && p <= 1.0, "binomial probability out of range");
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - binomial(n, 1.0 - p);

  const double np = static_cast<double>(n) * p;
  if (np < 30.0) return binomial_inversion(n, p);

  // Bulk regime: normal approximation with continuity correction. The exact
  // mass at 0 is (1 - p)^n < exp(-np) <= exp(-30) here (and at n smaller
  // still); the approximation puts below 4e-8 there, so it barely touches
  // stability statistics, but it is not exact (see rng.hpp).
  const double mean = np;
  const double sd = std::sqrt(np * (1.0 - p));
  double x = std::floor(mean + sd * normal() + 0.5);
  if (x < 0.0) x = 0.0;
  const double nd = static_cast<double>(n);
  if (x > nd) x = nd;
  return static_cast<std::uint64_t>(x);
}

Rng Rng::fork() {
  // A fresh 64-bit draw seeds a splitmix-expanded child; splitmix64 is a
  // bijective mixer so distinct draws give distinct, decorrelated children.
  return Rng(next_u64());
}

}  // namespace xpuf
