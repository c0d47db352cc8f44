#include "summary.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

namespace {

// Nearest-rank percentile (pct in (0, 100]) of an ascending sample; empty
// input -> 0.
double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  // Nearest rank, with an epsilon so e.g. p99 of 100 samples is rank 99
  // even when pct / 100 * n rounds up in binary floating point.
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

double supported_percentile(std::size_t count, double max_pct) {
  constexpr std::array<double, 6> kLadder{99.9, 99.0, 95.0, 90.0, 80.0, 50.0};
  for (const double pct : kLadder) {
    if (pct > max_pct) {
      continue;
    }
    // Samples strictly above the nearest-rank position.
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(count) - 1e-9));
    if (count >= rank + 10) {
      return pct;
    }
  }
  return 50.0;
}

Summary summarize(std::vector<double> values, double max_pct) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.count = values.size();
  s.median = percentile_sorted(values, 50.0);
  s.tail_pct = supported_percentile(values.size(), max_pct);
  s.tail = percentile_sorted(values, s.tail_pct);
  return s;
}

std::vector<std::vector<double>> split_windows(
    const std::vector<double>& stamps, const std::vector<double>& values,
    double t0, double t1, std::size_t k) {
  k = std::max<std::size_t>(k, 1);
  std::vector<std::vector<double>> windows(k);
  const double width = (t1 - t0) / static_cast<double>(k);
  for (std::size_t i = 0; i < values.size() && i < stamps.size(); ++i) {
    const double pos = width > 0.0 ? (stamps[i] - t0) / width : 0.0;
    const auto w = static_cast<std::size_t>(
        std::clamp(pos, 0.0, static_cast<double>(k - 1)));
    windows[w].push_back(values[i]);
  }
  return windows;
}

}  // namespace perfbench
