// Order statistics for latency samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(const std::vector<double>& samples);

// Samples that lie beyond the nearest-rank p-th percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, double p);

// The highest of the percentiles 50, 90, 99, 99.9 and 99.99
// that has at least `min_beyond` samples beyond it; 0 when n is too small
// for even the median to qualify.
double TailPercentile(std::size_t n, std::size_t min_beyond = 10);

}  // namespace perfbench
