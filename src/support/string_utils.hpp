// String helpers for diagnostics, the IR printer and bench tables.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/common.hpp"

namespace htvm {

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Joins items with `sep`, e.g. Join({"1","2"}, "x") == "1x2".
std::string Join(const std::vector<std::string>& items,
                 const std::string& sep);

// Renders a vector of integers as "[a, b, c]" — shapes in diagnostics.
std::string IntVecToString(const std::vector<i64>& values);

// Human-readable byte count: "256.0 kB", "1.5 MB".
std::string HumanBytes(i64 bytes);

// Parses the whole of `text` as a decimal T (integral or floating point).
// nullopt on empty input, leading or trailing junk ("12abc", "2x", " 1"),
// a sign T cannot hold ("-1" for unsigned), overflow, or a non-finite
// double — where atoi/atof would silently return a prefix or 0.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace htvm
