// Sample statistics the benchmark reports: median, quartiles with the same
// interpolation as Python's statistics.quantiles(n=4) (its default
// "exclusive" method), and the tail rule — the highest percentile that
// still has at least ten samples beyond it.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Requires a non-empty sample.
double median(std::vector<double> v);

/// First, second and third quartile of `v`, interpolated exactly like
/// Python's statistics.quantiles(v, n=4). Requires at least two samples.
std::array<double, 3> quartiles(std::vector<double> v);

struct Tail {
  double value = 0;       ///< sample at the tail rank
  double percentile = 0;  ///< share of samples at or below it, in percent
  std::size_t beyond = 0; ///< samples strictly above the tail rank
  std::size_t samples = 0;
};

/// The highest order statistic with at least `min_beyond` samples above
/// it. With `min_beyond` or fewer samples no such rank exists and the
/// minimum is returned (percentile 0), so the count always tells the
/// reader how much the figure rests on. Requires a non-empty sample.
Tail tail(std::vector<double> v, std::size_t min_beyond = 10);

}  // namespace perfbench
