#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// ceil(p% of n), immune to the representation error of p (99.9 * 1000 is
// not exactly 99900 in binary floating point).
std::size_t NearestRank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = std::max<std::size_t>(1, NearestRank(samples.size(), p));
  return samples[std::min(rank, samples.size()) - 1];
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  std::size_t rank = NearestRank(n, p);
  return n > rank ? n - rank : 0;
}

double TailPercentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 50};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

}  // namespace perfbench
