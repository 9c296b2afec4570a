// Deterministic, high-quality pseudo-random number generation.
//
// All stochastic components of the library (process variation, thermal
// noise, challenge generation, ML initialization) draw from xoshiro256++
// streams seeded via splitmix64. Every experiment takes an explicit seed so
// results are exactly reproducible, and independent subsystems derive
// decorrelated child streams via Rng::fork().
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace xpuf {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state and to
/// derive child seeds. Passes BigCrush as a 64-bit mixer.
class SplitMix64 {
 public:
  /// The state increment (the golden-ratio gamma) and the output mix.
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return mix(state_ += kGamma); }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ generator with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> adaptors, but the built-in distributions below are
/// deterministic across platforms (libstdc++'s std::normal_distribution is
/// not guaranteed to produce identical streams across versions).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from splitmix64(seed). Inline with
  /// next_u64, so a caller that reads only the first words of a fresh
  /// stream (a screening candidate) lets the compiler drop the state
  /// updates it never observes.
  explicit Rng(std::uint64_t seed = 0x9d8f7e6c5b4a3920ULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Rejection-free for practical n via Lemire's
  /// multiply-shift method.
  std::uint64_t uniform_below(std::uint64_t n);

  /// Standard normal deviate (Ziggurat-free polar method; deterministic).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Fair coin.
  bool bernoulli() { return (next_u64() >> 63) != 0; }

  /// Bernoulli with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Binomial(n, p) sample, in one of three regimes:
  ///  - p == 0 and p == 1 return 0 and n without a draw; p > 0.5 returns
  ///    n - binomial(n, 1 - p), so the regimes below see p <= 0.5.
  ///  - n p < 30: exact CDF inversion from one uniform, starting at
  ///    pmf(0) = (1 - p)^n via log1p, so Pr(X == 0) — and through the
  ///    mirror Pr(X == n) — is honored to within double rounding. This is
  ///    the regime of every nearly stable scan cell.
  ///  - n p >= 30: NOT exact. A normal approximation with continuity
  ///    correction, floor(n p + sd * normal() + 0.5) clamped to [0, n] with
  ///    sd = sqrt(n p (1 - p)). Its Pr(X == 0) is about
  ///    Phi((0.5 - n p) / sd) < 4e-8, where the exact (1 - p)^n is below
  ///    e^-30; Pr(X == n) is smaller still.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Derive an independent child generator. Children obtained from distinct
  /// parent draws have decorrelated streams.
  Rng fork();

  /// One draw to key a StreamFamily: advances this generator exactly once,
  /// regardless of how many child streams the family later hands out. This
  /// is the anchor of the deterministic-parallelism convention (see
  /// common/parallel.hpp): serial code that consumed a data-dependent number
  /// of draws per work item cannot be parallelized reproducibly, but one
  /// base draw + per-item keyed children can.
  std::uint64_t fork_base() { return next_u64(); }

  /// Fisher-Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  // Cached second deviate from the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;

  std::uint64_t binomial_inversion(std::uint64_t n, double p);
};

/// A deterministic family of decorrelated child streams keyed by item index.
///
/// stream(i) is a pure function of (base, i): unlike Rng::fork(), handing
/// out a child does not mutate any state, so parallel work items can derive
/// their streams in any order — chunked across any number of threads — and
/// always see exactly the draws the serial loop would have given them.
/// Distinct keys go through two rounds of splitmix64 mixing (one here, one
/// in the Rng seed expansion), which decorrelates neighboring indices.
class StreamFamily {
 public:
  /// `base` is typically one Rng::fork_base() draw from a parent stream.
  explicit StreamFamily(std::uint64_t base) : base_(base) {}

  /// The child stream for work item `index`.
  Rng stream(std::uint64_t index) const {
    SplitMix64 sm(base_ ^ (SplitMix64::kGamma * (index + 1)));
    return Rng(sm.next());
  }

  /// stream(index).next_u64() without building the stream: three splitmix
  /// rounds (the stream's seed, then its state words 0 and 3, which are all
  /// xoshiro256++'s first output reads).
  std::uint64_t first_u64(std::uint64_t index) const {
    const std::uint64_t seed =
        SplitMix64::mix((base_ ^ (SplitMix64::kGamma * (index + 1))) + SplitMix64::kGamma);
    const std::uint64_t s0 = SplitMix64::mix(seed + SplitMix64::kGamma);
    const std::uint64_t s3 = SplitMix64::mix(seed + 4 * SplitMix64::kGamma);
    return std::rotl(s0 + s3, 23) + s0;
  }

  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_;
};

}  // namespace xpuf
