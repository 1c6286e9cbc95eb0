#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

namespace perfbench {
namespace {

volatile std::uint64_t g_sink = 0;

double RunOnce() {
  constexpr std::size_t kWords = std::size_t{1} << 19;  // 4 MiB
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> a(kWords);
  std::vector<std::uint64_t> b(kWords);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& w : a) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::memcpy(b.data(), a.data(), kWords * sizeof(std::uint64_t));
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : b) h = (h ^ w) * 1099511628211ull;
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::size_t i = 0; i < 4096; ++i) m[b[(i * 4099) % kWords]] = i;
  for (const auto& [k, v] : m) h += k ^ v;
  g_sink = h;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double CalibrationMs() { return std::min(RunOnce(), RunOnce()); }

}  // namespace perfbench
