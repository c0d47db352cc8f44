// Unit tests of the benchmark's own helpers: the shared summary and the
// seeded arrival schedule.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "arrivals.hpp"
#include "summary.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Summary, EmptySampleIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail, 0.0);
}

TEST(Summary, MedianIsNearestRankAndOrderFree) {
  EXPECT_EQ(summarize({5.0, 1.0, 3.0}).median, 3.0);
  EXPECT_EQ(summarize({4.0, 1.0, 3.0, 2.0}).median, 2.0);
  EXPECT_EQ(summarize({7.0}).median, 7.0);
}

TEST(Summary, TailIsHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 and leaves exactly ten above it.
  Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.median, 500.0);
  // 999 samples leave only nine above p99: fall back to p95.
  s = summarize(one_to(999));
  EXPECT_EQ(s.tail_pct, 95.0);
  // 50 samples (a short mapped run): p80 leaves ten.
  EXPECT_EQ(summarize(one_to(50)).tail_pct, 80.0);
  // Too few for any tail: the median is all there is.
  EXPECT_EQ(summarize(one_to(15)).tail_pct, 50.0);
}

TEST(Summary, TailIsCappedAtTheRequestedPercentile) {
  EXPECT_EQ(supported_percentile(100000, 99.0), 99.0);
  EXPECT_EQ(supported_percentile(100000, 99.9), 99.9);
  EXPECT_EQ(supported_percentile(100, 90.0), 90.0);
  EXPECT_EQ(supported_percentile(99, 90.0), 80.0);
}

TEST(Summary, SplitWindowsBinsByStampAndClampsOutliers) {
  // Stamps 0..9 over [0, 10) in 5 windows, plus one before and one after.
  std::vector<double> stamps{-3.0};
  for (int i = 0; i < 10; ++i) {
    stamps.push_back(i);
  }
  stamps.push_back(42.0);
  const std::vector<double> values = stamps;
  const auto w = split_windows(stamps, values, 0.0, 10.0, 5);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w[0], (std::vector<double>{-3.0, 0.0, 1.0}));
  EXPECT_EQ(w[2], (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(w[4], (std::vector<double>{8.0, 9.0, 42.0}));
}

TEST(Arrivals, OneSeedReproducesTheScheduleExactly) {
  const std::vector<double> a = poisson_schedule(5000.0, 20000, 42);
  const std::vector<double> b = poisson_schedule(5000.0, 20000, 42);
  ASSERT_EQ(a.size(), 20000u);
  EXPECT_EQ(a, b);  // bit-for-bit, not approximately
  EXPECT_NE(a, poisson_schedule(5000.0, 20000, 43));
}

TEST(Arrivals, ScheduleIsIncreasingAtTheRequestedRate) {
  const std::vector<double> t = poisson_schedule(2000.0, 40000, 7);
  for (std::size_t i = 1; i < t.size(); ++i) {
    ASSERT_GT(t[i], t[i - 1]);
  }
  // 40000 exponential gaps: the mean is within 2% of 1/rate.
  const double mean_gap = t.back() / static_cast<double>(t.size());
  EXPECT_NEAR(mean_gap, 1.0 / 2000.0, 0.02 / 2000.0);
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tr;
  const std::uint32_t parent = tr.name_id("batch");
  const std::uint32_t child = tr.name_id("layer");
  EXPECT_EQ(tr.name_id("batch"), parent);
  tr.record(Span{parent, 10, 0, 0, 0.0, 100.0});
  tr.record(Span{child, 0, 10, 0, 10.0, 40.0});
  tr.record(Span{child, 0, 10, 0, 40.0, 90.0});
  const auto totals = tr.totals();
  EXPECT_EQ(totals.at("batch").count, 1u);
  EXPECT_DOUBLE_EQ(totals.at("batch").total_us, 100.0);
  EXPECT_DOUBLE_EQ(totals.at("batch").self_us, 20.0);
  EXPECT_EQ(totals.at("layer").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("layer").self_us, 80.0);
}

TEST(Tracer, DropsSpansPastCapacity) {
  Tracer tr(2);
  const std::uint32_t n = tr.name_id("x");
  for (int i = 0; i < 5; ++i) {
    tr.record(n, 0.0);
  }
  EXPECT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.dropped(), 3u);
}

}  // namespace
}  // namespace perfbench
