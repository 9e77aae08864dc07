// Readable failures for byte-level HAB comparisons.
//
// Differential tests compare vm::SerializeHabForDiff images. On a mismatch
// HabBytesEq names the first HAB section whose payload differs and the byte
// offset inside it, instead of printing two binary blobs:
//
//   EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(a),
//                       vm::SerializeHabForDiff(b));
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "vm/hab.hpp"

namespace htvm::test {

inline ::testing::AssertionResult HabBytesEq(const char* lhs_expr,
                                             const char* rhs_expr,
                                             const std::string& lhs,
                                             const std::string& rhs) {
  if (lhs == rhs) return ::testing::AssertionSuccess();
  ::testing::AssertionResult failure = ::testing::AssertionFailure();
  failure << lhs_expr << " (" << lhs.size() << " bytes) != " << rhs_expr
          << " (" << rhs.size() << " bytes): ";
  const auto first_mismatch = [](std::string_view a, std::string_view b) {
    return static_cast<size_t>(
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin());
  };
  const auto parse = [](const std::string& bytes) {
    return vm::ParseHab(
        {reinterpret_cast<const u8*>(bytes.data()), bytes.size()});
  };
  const auto a = parse(lhs);
  const auto b = parse(rhs);
  if (!a.ok() || !b.ok()) {
    // Not both HAB (e.g. a side carries a compile error as text): show the
    // head of each side that is not a HAB image.
    failure << "first difference at byte " << first_mismatch(lhs, rhs);
    if (!vm::LooksLikeHab(lhs)) failure << "; lhs: " << lhs.substr(0, 200);
    if (!vm::LooksLikeHab(rhs)) failure << "; rhs: " << rhs.substr(0, 200);
    return failure;
  }
  const size_t n = std::min(a->sections.size(), b->sections.size());
  for (size_t i = 0; i < n; ++i) {
    const vm::HabSectionInfo& sa = a->sections[i];
    const vm::HabSectionInfo& sb = b->sections[i];
    if (sa.id != sb.id) {
      return failure << "section #" << i << " has id " << sa.id << " vs "
                     << sb.id;
    }
    const std::string_view pa(lhs.data() + sa.offset, sa.bytes);
    const std::string_view pb(rhs.data() + sb.offset, sb.bytes);
    if (pa != pb) {
      const size_t at = first_mismatch(pa, pb);
      return failure << "first difference in section id " << sa.id
                     << " at byte offset " << at << " of the section (file "
                     << "byte " << sa.offset + static_cast<i64>(at)
                     << "); section sizes " << sa.bytes << " vs " << sb.bytes;
    }
  }
  if (a->sections.size() != b->sections.size()) {
    return failure << a->sections.size() << " vs " << b->sections.size()
                   << " sections";
  }
  return failure << "sections equal; first difference at byte "
                 << first_mismatch(lhs, rhs);
}

}  // namespace htvm::test
