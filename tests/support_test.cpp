#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/histogram.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/string_utils.hpp"

namespace htvm {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::Unsupported("no ternary kernels");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_EQ(s.ToString(), "UNSUPPORTED: no ternary kernels");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(MathUtils, CeilDivAndAlign) {
  EXPECT_EQ(CeilDiv(10, 4), 3);
  EXPECT_EQ(CeilDiv(12, 4), 3);
  EXPECT_EQ(CeilDiv(1, 16), 1);
  EXPECT_EQ(AlignUp(17, 16), 32);
  EXPECT_EQ(AlignUp(16, 16), 16);
  EXPECT_EQ(AlignUp(0, 16), 0);
  EXPECT_EQ(AlignDown(17, 16), 16);
}

TEST(MathUtils, RoundingRightShift) {
  // round-to-nearest, ties toward +infinity (add-round-then-shift)
  EXPECT_EQ(RoundingRightShift(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(RoundingRightShift(4, 1), 2);
  EXPECT_EQ(RoundingRightShift(-5, 1), -2);  // -2.5 -> -2
  EXPECT_EQ(RoundingRightShift(-6, 1), -3);
  EXPECT_EQ(RoundingRightShift(-1, 4), 0);
  EXPECT_EQ(RoundingRightShift(100, 0), 100);
  EXPECT_EQ(RoundingRightShift(255, 4), 16);
}

TEST(MathUtils, Divisors) {
  EXPECT_EQ(Divisors(12), (std::vector<i64>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(Divisors(1), (std::vector<i64>{1}));
  EXPECT_EQ(Divisors(7), (std::vector<i64>{1, 7}));
}

TEST(MathUtils, TileCandidatesSmallDimIsExhaustive) {
  const auto c = TileCandidates(8, 16);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.front(), 1);
  EXPECT_EQ(c.back(), 8);
}

TEST(MathUtils, TileCandidatesLargeDimIncludesDivisorsAndSteps) {
  const auto c = TileCandidates(96, 16);
  // divisors of 96 and multiples of 16 up to 96
  for (i64 v : {1, 2, 3, 32, 48, 96, 16, 80}) {
    EXPECT_NE(std::find(c.begin(), c.end(), v), c.end()) << v;
  }
  // sorted unique
  for (size_t i = 1; i < c.size(); ++i) EXPECT_LT(c[i - 1], c[i]);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const i64 v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, TernaryProducesAllThreeValues) {
  Rng rng(9);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.Ternary() + 1];
  EXPECT_GT(counts[0], 500);
  EXPECT_GT(counts[1], 500);
  EXPECT_GT(counts[2], 500);
}

TEST(StringUtils, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtils, JoinAndVec) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(IntVecToString({1, 2, 3}), "[1, 2, 3]");
}

TEST(StringUtils, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(256 * 1024), "256.0 kB");
}

TEST(StringUtils, ParseNumberTakesTheWholeString) {
  EXPECT_EQ(ParseNumber<int>("12"), 12);
  EXPECT_EQ(ParseNumber<int>("-3"), -3);
  EXPECT_EQ(ParseNumber<u64>("18446744073709551615"), ~u64{0});
  EXPECT_EQ(ParseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(ParseNumber<double>("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "12abc", "2x", " 1", "1 ", "+1"}) {
    EXPECT_FALSE(ParseNumber<int>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseNumber<u64>("-1").has_value());
  EXPECT_FALSE(ParseNumber<int>("99999999999").has_value());  // overflow
  EXPECT_FALSE(ParseNumber<int>("4.5").has_value());
  for (const char* bad : {"1s", "0.3z", "nan", "inf", "-inf", "."}) {
    EXPECT_FALSE(ParseNumber<double>(bad).has_value()) << bad;
  }
}

// --------------------------------------------------------- LatencyHistogram

TEST(Histogram, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  // Percentiles of an empty histogram are 0, not garbage or a crash.
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 0.0) << "p" << p;
  }
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.Record(123.4);
  EXPECT_EQ(h.count(), 1);
  // With one sample the bucket bound is clamped to the exact value, so
  // every percentile — including p99 — is that sample.
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 123.4) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 123.4);
}

TEST(Histogram, PercentileIsMonotoneAndBounded) {
  LatencyHistogram h;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    h.Record(static_cast<double>(rng.UniformInt(1, 100000)));
  }
  double prev = h.Percentile(0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = h.Percentile(p);
    EXPECT_GE(cur, prev) << "p" << p;
    EXPECT_GE(cur, h.min());
    EXPECT_LE(cur, h.max());
    prev = cur;
  }
}

TEST(Histogram, OverflowValuesLandInTopBucketWithExactExtremes) {
  // Values beyond the i64 range would be UB in llround; the bucketed value
  // clamps while min/max/sum stay exact.
  LatencyHistogram h;
  h.Record(1.0);
  h.Record(1e300);
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_TRUE(std::isinf(h.max()));
  // Percentiles stay within [min, max] and monotone even with the extreme
  // recordings present.
  EXPECT_GE(h.Percentile(50.0), h.min());
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), h.max());
  EXPECT_LE(h.Percentile(50.0), h.Percentile(99.0));
}

TEST(Histogram, NegativeAndNanClampToZero) {
  LatencyHistogram h;
  h.Record(-5.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

}  // namespace
}  // namespace htvm
