#include "analysis/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace xpuf::analysis {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  XPUF_REQUIRE(hi > lo, "histogram needs hi > lo");
  XPUF_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value > hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((value - lo_) / (hi_ - lo_) *
                                      static_cast<double>(counts_.size()));
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // value == hi
  ++counts_[bin];
}

void Histogram::add_all(std::span<const double> values) {
  for (double v : values) add(v);
}

std::size_t Histogram::count(std::size_t bin) const {
  XPUF_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  XPUF_REQUIRE(bin < counts_.size(), "histogram bin out of range");
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * w;
}

double Histogram::fraction(std::size_t bin) const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(count(bin)) / static_cast<double>(total_);
}

std::string Histogram::render(std::size_t width, std::size_t max_rows) const {
  std::ostringstream os;
  const std::size_t merge = (counts_.size() + max_rows - 1) / max_rows;
  std::vector<std::size_t> merged;
  for (std::size_t b = 0; b < counts_.size(); b += merge) {
    std::size_t s = 0;
    for (std::size_t j = b; j < std::min(b + merge, counts_.size()); ++j) s += counts_[j];
    merged.push_back(s);
  }
  const std::size_t peak = merged.empty() ? 0 : *std::max_element(merged.begin(), merged.end());
  const double bin_w = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const double left = lo_ + static_cast<double>(i * merge) * bin_w;
    const double right = std::min(hi_, left + static_cast<double>(merge) * bin_w);
    const std::size_t bar =
        peak == 0 ? 0 : merged[i] * width / peak;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%6.3f,%6.3f] %9zu ", left, right, merged[i]);
    os << buf << std::string(bar, '#') << '\n';
  }
  if (underflow_ > 0) os << "underflow: " << underflow_ << '\n';
  if (overflow_ > 0) os << "overflow:  " << overflow_ << '\n';
  return os.str();
}

}  // namespace xpuf::analysis
