// Summary statistics over raw samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct Dist {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};

// Nearest-rank quantiles; sorts `v`.
template <typename T>
Dist Summarize(std::vector<T>& v) {
  Dist d;
  d.count = v.size();
  if (v.empty()) {
    return d;
  }
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
  };
  d.p50 = at(0.50);
  d.p99 = at(0.99);
  d.max = static_cast<double>(v.back());
  return d;
}

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
