// The one latency/throughput summary every workload reports through.
//
// A timing is reported as its median plus the highest percentile that
// still has at least ten samples beyond it, together with the sample
// count, so a tail figure never rests on one or two outliers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Summary {
  std::size_t count = 0;  ///< Samples summarized.
  double median = 0.0;    ///< Nearest-rank p50 (0 when empty).
  double tail_pct = 0.0;  ///< Percentile `tail` reports (50 when n < 20).
  double tail = 0.0;      ///< Value at tail_pct.
};

/// Highest percentile on the ladder 99.9 / 99 / 95 / 90 / 80 / 50 that is
/// at most `max_pct` and leaves at least ten of `count` samples above it;
/// 50 when none does.
[[nodiscard]] double supported_percentile(std::size_t count, double max_pct);

/// Median, supported tail (capped at `max_pct`) and count of `values`.
[[nodiscard]] Summary summarize(std::vector<double> values,
                                double max_pct = 99.0);

/// Splits time-stamped samples into `k` equal windows over [t0, t1];
/// stamps outside the span go to the nearest end window.
[[nodiscard]] std::vector<std::vector<double>> split_windows(
    const std::vector<double>& stamps, const std::vector<double>& values,
    double t0, double t1, std::size_t k);

}  // namespace perfbench
