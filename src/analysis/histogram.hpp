// Fixed-bin histograms for soft-response distributions (paper Figs 2/8/9/11).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace xpuf::analysis {

/// Histogram over [lo, hi] with uniform bins. The paper's soft-response
/// histograms use bin width 0.01 over [0, 1]; values exactly at `hi` land in
/// the last bin, values outside the range are counted in the outflow
/// counters (model-predicted soft responses extend beyond [0, 1]).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  void add_all(std::span<const double> values);

  std::size_t bins() const { return counts_.size(); }

  std::size_t count(std::size_t bin) const;
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  /// Center of a bin.
  double bin_center(std::size_t bin) const;

  /// Fraction of all added values (including outflow) in a bin.
  double fraction(std::size_t bin) const;

  /// Compact multi-line ASCII rendering (for bench output); `width` is the
  /// bar length of the fullest bin, `max_rows` caps the printed bins by
  /// merging adjacent ones.
  std::string render(std::size_t width = 50, std::size_t max_rows = 25) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace xpuf::analysis
