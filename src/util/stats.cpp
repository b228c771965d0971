#include "util/stats.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rtpool::util {

void RunningStats::add(double x) {
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::max() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(values.begin(), values.end());
  const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace rtpool::util
