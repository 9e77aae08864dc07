// Small integer math helpers shared by the tiler, the memory planner and the
// accelerator cost models.
#pragma once

#include <vector>

#include "support/common.hpp"

namespace htvm {

// ceil(a / b) for positive integers.
constexpr i64 CeilDiv(i64 a, i64 b) { return (a + b - 1) / b; }

// Smallest multiple of `align` that is >= value.
constexpr i64 AlignUp(i64 value, i64 align) {
  return CeilDiv(value, align) * align;
}

// Largest multiple of `align` that is <= value (0 if value < align).
constexpr i64 AlignDown(i64 value, i64 align) {
  return (value / align) * align;
}

constexpr i64 Clamp(i64 v, i64 lo, i64 hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

// p / q rounded to nearest, ties away from zero, for q > 0.
constexpr i64 RoundedDiv(i64 p, i64 q) {
  return p >= 0 ? (p + q / 2) / q : -((-p + q / 2) / q);
}

// Arithmetic right shift with rounding (add half, then shift — ties round
// toward +infinity). This is the add-round-then-shift idiom DORY-generated
// kernels and the accelerator output stages implement in hardware.
constexpr i64 RoundingRightShift(i64 v, i64 shift) {
  if (shift <= 0) return v;
  const i64 round = i64{1} << (shift - 1);
  return (v + round) >> shift;
}

// All divisors of n in increasing order. Tile-size candidates come from
// these plus non-divisor "remainder" tiles.
std::vector<i64> Divisors(i64 n);

// Candidate tile sizes for a dimension of extent n: every value 1..n when n
// is small, otherwise divisors plus multiples of `step` (and n itself). Used
// by the tiling solver to bound the search space.
std::vector<i64> TileCandidates(i64 n, i64 step);

}  // namespace htvm
