#include "support/string_utils.hpp"

#include <cstdarg>
#include <cstdio>

namespace htvm {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string IntVecToString(const std::vector<i64>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

std::string HumanBytes(i64 bytes) {
  if (bytes < 1024) return StrFormat("%lld B", static_cast<long long>(bytes));
  if (bytes < 1024 * 1024)
    return StrFormat("%.1f kB", static_cast<double>(bytes) / 1024.0);
  return StrFormat("%.2f MB", static_cast<double>(bytes) / (1024.0 * 1024.0));
}

}  // namespace htvm
