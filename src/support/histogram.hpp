// Log-bucketed latency histogram for serving statistics (p50/p95/p99).
//
// HdrHistogram-style layout: each power-of-two range is split into 16
// sub-buckets, bounding the relative quantile error at ~6%. Recording is
// O(1) and allocation-free after construction; percentile queries walk the
// fixed bucket array. Exact min/max/sum are tracked on the side so the
// extreme quantiles (p0/p100) and the mean stay exact.
//
// Values are non-negative and recorded in whatever unit the caller picks
// (the serving layer uses simulated microseconds). The histogram itself is
// not synchronized; the serving layer records under its scheduler lock.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace htvm {

class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(double value);

  i64 count() const { return count_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  double Mean() const;

  // Value at-or-below which `p` percent of recordings fall (p in [0, 100]).
  // Returns the bucket's upper bound clamped to the exact [min, max] range,
  // so Percentile is monotone in p and exact at the extremes.
  double Percentile(double p) const;

  // "count=N min=A p50=B p95=C p99=D max=E" — diagnostics/bench output.
  std::string Summary() const;

 private:
  std::vector<i64> buckets_;
  i64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace htvm
