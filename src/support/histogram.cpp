#include "support/histogram.hpp"

#include <bit>
#include <cmath>

#include "support/string_utils.hpp"

namespace htvm {
namespace {

// 16 sub-buckets per power of two: values below 16 get exact buckets, larger
// values keep their top 5 significant bits (leading one + 4 mantissa bits).
constexpr int kMantissaBits = 4;
constexpr int kSub = 1 << kMantissaBits;

// Max index for 64-bit values: width 64 -> (64 - kMantissaBits) * kSub +
// (kSub - 1), so one more full sub-bucket row than (64 - kMantissaBits).
constexpr int kNumBuckets = (64 - kMantissaBits + 1) * kSub;

int BucketIndex(u64 v) {  // v >= 1
  const int width = std::bit_width(v);
  if (width <= kMantissaBits) return static_cast<int>(v);
  const int shift = width - 1 - kMantissaBits;
  const int mantissa = static_cast<int>((v >> shift) & (kSub - 1));
  return (width - kMantissaBits) * kSub + mantissa;
}

// Largest value mapping to `index` (inverse of BucketIndex).
double BucketUpperBound(int index) {
  if (index < kSub) return static_cast<double>(index);
  const int exponent = index / kSub - 1;
  const int mantissa = index % kSub;
  const double base = std::ldexp(static_cast<double>(kSub + mantissa + 1),
                                 exponent);
  return base - 1.0;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

void LatencyHistogram::Record(double value) {
  if (!(value >= 0.0)) value = 0.0;  // negatives and NaN clamp to zero
  // llround is undefined for values outside the i64 range; clamp the
  // *bucketed* value into it so extreme recordings land in the top bucket
  // while the exact min/max/sum side-channel keeps the true value.
  constexpr double kMaxBucketable = 9.0e18;  // < 2^63 - 1
  const double bucketed = value < kMaxBucketable ? value : kMaxBucketable;
  const u64 v = bucketed < 1.0 ? 1 : static_cast<u64>(std::llround(bucketed));
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

double LatencyHistogram::Mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const i64 rank =
      std::max<i64>(1, static_cast<i64>(std::ceil(p / 100.0 *
                                                  static_cast<double>(count_))));
  i64 seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const double bound = BucketUpperBound(static_cast<int>(i));
      return std::min(std::max(bound, min_), max_);
    }
  }
  return max_;
}

std::string LatencyHistogram::Summary() const {
  return StrFormat("count=%lld min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
                   static_cast<long long>(count_), min(), Percentile(50.0),
                   Percentile(95.0), Percentile(99.0), max());
}

}  // namespace htvm
