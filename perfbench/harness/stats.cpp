#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
  // j = i*m // 4, clamped to [1, n-1], interpolated by delta = i*m - 4j.
  const std::size_t n = v.size();
  const std::size_t m = n + 1;
  std::array<double, 3> out{};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    out[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return out;
}

Tail tail(std::vector<double> v, std::size_t min_beyond) {
  if (v.empty()) throw std::invalid_argument("tail of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > min_beyond ? n - min_beyond - 1 : 0;
  Tail t;
  t.value = v[rank];
  t.beyond = n - rank - 1;
  t.samples = n;
  t.percentile = n > min_beyond ? 100.0 * static_cast<double>(rank + 1) /
                                      static_cast<double>(n)
                                : 0.0;
  return t;
}

}  // namespace perfbench
