// Small statistics helpers for the experiment harness.
#pragma once

#include <cstddef>
#include <vector>

namespace rtpool::util {

/// Streaming accumulator for the mean (Welford's update) and the maximum.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;       ///< 0 if empty.
  double max() const;        ///< NaN if empty.

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

/// Counter of boolean outcomes; `ratio()` is the success fraction.
class RatioCounter {
 public:
  void add(bool success) {
    ++total_;
    if (success) ++hits_;
  }
  std::size_t total() const { return total_; }
  std::size_t hits() const { return hits_; }
  double ratio() const { return total_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total_); }

 private:
  std::size_t total_ = 0;
  std::size_t hits_ = 0;
};

/// p-th percentile (0..100) by linear interpolation; input need not be sorted.
double percentile(std::vector<double> values, double p);

}  // namespace rtpool::util
