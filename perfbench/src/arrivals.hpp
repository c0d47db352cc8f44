// Seeded open-loop arrival schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Send offsets, in seconds from the start of the phase, of `count`
/// Poisson arrivals at `rate_per_s` (exponential gaps). The same seed
/// always gives the same schedule; the rate is an absolute figure the
/// workload fixes, never one calibrated from the system under test.
[[nodiscard]] std::vector<double> poisson_schedule(double rate_per_s,
                                                   std::size_t count,
                                                   std::uint64_t seed);

}  // namespace perfbench
