#include "arrivals.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace perfbench {

std::vector<double> poisson_schedule(double rate_per_s, std::size_t count,
                                     std::uint64_t seed) {
  EB_REQUIRE(rate_per_s > 0.0, "arrival rate must be positive");
  eb::RngStream rng(seed);
  std::vector<double> offsets;
  offsets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // 1 - u lies in (0, 1], so the log stays finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

}  // namespace perfbench
