// The benchmark's four workloads, each one timed pass over the program's
// public interfaces (see ../README.md for what each measures and why).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "summary.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< Measurements behind the value.
  std::string note = {};    ///< Printed beside it, e.g. the tail percentile.
};

struct PassOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time, split over the pass's phases.
  int setups = 1;         ///< Set-ups timed; setup_s is their median.
};

struct PassResult {
  /// Untraced: setup_s, p50_ms, samples_per_s. Traced: the layer metrics
  /// this workload exercises.
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< Non-ok, wrong, late or refused.
  bool correct = true;     ///< Every checked output matched its reference.
  /// Open-loop request (wire) or batch-call (offline) latency, ms. Its
  /// median is the figure trace.overhead compares.
  Summary latency;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one pass of `workload`; with a tracer, the traced variant that
/// reports layer metrics instead of end-to-end ones. Throws eb::Error on an
/// unknown workload.
[[nodiscard]] PassResult run_pass(const std::string& workload,
                                  const PassOptions& opt, Tracer* tracer);

}  // namespace perfbench
