// Byte-level HAB helpers for tests.
//
// Differential tests compare vm::SerializeHabForDiff images. On a mismatch
// HabBytesEq names the first HAB section whose payload differs and the byte
// offset inside it, instead of printing two binary blobs:
//
//   EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(a),
//                       vm::SerializeHabForDiff(b));
//
// Corruption tests edit a section payload in place and then call
// FixChecksum, so the edit reaches the section decoder and the load-time
// validation instead of being rejected by the checksum verifier.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

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

// One section-table entry (see hab.cpp): id @0, offset @8, bytes @16,
// checksum @24.
struct SectionEntry {
  u32 id = 0;
  size_t entry_pos = 0;
  u64 offset = 0;
  u64 bytes = 0;
};

inline std::vector<SectionEntry> SectionEntries(const std::string& image) {
  u32 section_count;
  std::memcpy(&section_count, image.data() + vm::kHabSectionCountOffset,
              sizeof section_count);
  std::vector<SectionEntry> entries;
  for (u32 i = 0; i < section_count; ++i) {
    SectionEntry e;
    e.entry_pos = vm::kHabHeaderBytes + size_t{i} * vm::kHabSectionEntryBytes;
    std::memcpy(&e.id, image.data() + e.entry_pos, sizeof e.id);
    std::memcpy(&e.offset, image.data() + e.entry_pos + 8, sizeof e.offset);
    std::memcpy(&e.bytes, image.data() + e.entry_pos + 16, sizeof e.bytes);
    entries.push_back(e);
  }
  return entries;
}

// The entry of section `id`; a zero-byte entry when the image has none.
inline SectionEntry FindSectionEntry(const std::string& image,
                                     vm::HabSection id) {
  for (const SectionEntry& e : SectionEntries(image)) {
    if (e.id == static_cast<u32>(id)) return e;
  }
  return {};
}

// Rewrites a section's checksum to match its (edited) payload.
inline void FixChecksum(std::string& image, const SectionEntry& entry) {
  const u64 sum = vm::HabChecksum(
      reinterpret_cast<const u8*>(image.data()) + entry.offset,
      static_cast<size_t>(entry.bytes));
  std::memcpy(image.data() + entry.entry_pos + 24, &sum, sizeof sum);
}

}  // namespace htvm::test
