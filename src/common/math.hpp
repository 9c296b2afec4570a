// Scalar special functions used throughout the library.
//
// The silicon noise model maps arbiter delay differences to flip
// probabilities through the standard normal CDF; enrollment and the
// stability analysis need its inverse. Both are implemented to near
// double precision so far-tail stability probabilities (1e-12 and below)
// are meaningful.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace xpuf {

/// Standard normal CDF Phi(x), accurate in both tails (built on erfc).
double normal_cdf(double x);

/// normal_cdf(x) is exactly 1.0 for every x >= this (0.5 * erfc(-x / sqrt 2)
/// rounds to 1.0 there) and below 1.0 at the next double down. A property
/// of the libm's erfc rounding; tests/test_math.cpp pins both sides.
inline constexpr double kNormalCdfOneFrom = 8.2923610758135968;

/// normal_cdf(x) is exactly 0.0 for every x <= this (erfc underflows past
/// its smallest subnormal) and positive at the next double up. Pinned the
/// same way.
inline constexpr double kNormalCdfZeroTo = -0x1.33cd8c8c4dd05p+5;  // -38.475365730404555

/// Batched Phi over a span: out[i] = normal_cdf(xs[i]), bit-for-bit. One
/// straight-line loop over the same erfc expression, so the batched
/// evaluation core (sim/linear.hpp) and the scalar hot paths can never
/// disagree. Spans must have equal length; in-place (out == xs) is fine.
void normal_cdf_batch(std::span<const double> xs, std::span<double> out);

/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; relative error < 1e-13 over (0, 1)).
double normal_quantile(double p);

/// Numerically stable logistic function 1 / (1 + exp(-x)).
double sigmoid(double x);

/// log(1 + exp(x)) without overflow.
double softplus(double x);

/// Mean of a span.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Pearson correlation of two equal-length spans; 0 if either is constant.
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

}  // namespace xpuf
