#pragma once
// Small descriptive-statistics helpers used by validation benches
// (mean relative error, relative standard deviation) and tests.

#include <cmath>
#include <cstddef>
#include <span>

#include "support/error.hpp"

namespace dsmcpic {

inline double sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double mean(std::span<const double> v) {
  DSMCPIC_CHECK(!v.empty());
  return sum(v) / static_cast<double>(v.size());
}

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
inline double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

/// Relative standard deviation (coefficient of variation); the paper reports
/// RSD < 5% across repeated runs.
inline double relative_stddev(std::span<const double> v) {
  const double m = mean(v);
  DSMCPIC_CHECK(m != 0.0);
  return stddev(v) / std::abs(m);
}

/// Mean of |a_i - b_i| / max(|b_i|, floor); the paper's "mean relative
/// error" of number density along the axis uses the serial run as reference.
inline double mean_relative_error(std::span<const double> a,
                                  std::span<const double> b,
                                  double floor = 1e-300) {
  DSMCPIC_CHECK(a.size() == b.size() && !a.empty());
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = std::abs(b[i]);
    if (ref < floor) continue;  // paper: error diverges where density ~ 0
    acc += std::abs(a[i] - b[i]) / ref;
    ++counted;
  }
  return counted ? acc / static_cast<double>(counted) : 0.0;
}

inline double max_of(std::span<const double> v) {
  DSMCPIC_CHECK(!v.empty());
  double m = v[0];
  for (double x : v) m = std::max(m, x);
  return m;
}

}  // namespace dsmcpic
