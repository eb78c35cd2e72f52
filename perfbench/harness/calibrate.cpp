#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

namespace perfbench {

namespace {

/// A fixed amount of work whose result depends on all of it, so none of
/// it can be optimised away.
std::uint64_t calibration_kernel() {
  constexpr std::size_t kWords = 12000;
  constexpr std::size_t kSlots = std::size_t{1} << 19;  // 4 MiB of links
  constexpr std::size_t kHops = 400000;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  // Allocation, comparison and hashing, as in row processing.
  std::vector<std::string> words;
  words.reserve(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    std::string w(12 + next() % 24, ' ');
    for (char& c : w) c = static_cast<char>('a' + next() % 16);
    words.push_back(std::move(w));
  }
  std::sort(words.begin(), words.end());
  std::unordered_map<std::string, std::uint32_t> prefixes;
  for (const std::string& w : words) ++prefixes[w.substr(0, 3)];
  std::uint64_t sum = prefixes.size();
  for (const std::string& w : words) {
    sum = sum * 131 + static_cast<unsigned char>(w[w.size() / 2]);
  }
  // Dependent loads over a working set larger than the private caches,
  // as when tasks walk relations of deep tuples.
  std::vector<std::uint64_t> links(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) links[i] = next() % kSlots;
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < kHops; ++i) at = links[at] ^ (i & 1);
  return sum + at;
}

volatile std::uint64_t g_sink = 0;

double time_calibration_kernel() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + calibration_kernel();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void sample_calibration(std::vector<double>& samples, int reps) {
  for (int i = 0; i < reps; ++i) samples.push_back(time_calibration_kernel());
}

double host_scale(const std::vector<double>& samples) {
  return kCalibrationReferenceS / median(samples);
}

}  // namespace perfbench
