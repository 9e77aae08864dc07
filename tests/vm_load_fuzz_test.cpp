// Corrupt-file battery for the HAB loader (runs under ASan/UBSan in CI).
//
// Every malformed input must come back as a typed error Status — never a
// crash, hang, huge allocation, or out-of-bounds read. The corpus is a real
// compiled model so the mutations walk through every section parser.
#include <gtest/gtest.h>

#include <cstring>

#include "compiler/pipeline.hpp"
#include "dory/schedule_search.hpp"
#include "models/mlperf_tiny.hpp"
#include "support/rng.hpp"
#include "vm/hab.hpp"

namespace htvm::vm {
namespace {

std::span<const u8> AsSpan(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

// One compiled artifact serialized once, shared by every case.
const std::string& ValidImage() {
  static const std::string* image = [] {
    Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
    auto artifact = compiler::HtvmCompiler{{}}.Compile(g);
    HTVM_CHECK(artifact.ok());
    HabMeta meta;
    meta.model_name = "dscnn";
    meta.producer = "fuzz";
    return new std::string(SerializeHab(*artifact, meta));
  }();
  return *image;
}

TEST(VmLoadFuzz, ValidImageParses) {
  auto parsed = ParseHab(AsSpan(ValidImage()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.model_name, "dscnn");
}

TEST(VmLoadFuzz, EmptyAndTinyInputs) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{63}}) {
    const std::string tiny = ValidImage().substr(0, n);
    EXPECT_FALSE(ParseHab(AsSpan(tiny)).ok()) << "size " << n;
  }
}

TEST(VmLoadFuzz, TruncationsAlwaysTypedErrors) {
  const std::string& image = ValidImage();
  // Dense near the header/table, then coarse through the payloads.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < std::min<size_t>(image.size(), 1024); n += 13) {
    cuts.push_back(n);
  }
  for (size_t n = 1024; n < image.size(); n += image.size() / 97 + 1) {
    cuts.push_back(n);
  }
  cuts.push_back(image.size() - 1);
  for (size_t n : cuts) {
    const std::string cut = image.substr(0, n);
    auto parsed = ParseHab(AsSpan(cut));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << n;
  }
}

TEST(VmLoadFuzz, BitFlipsNeverCrash) {
  const std::string& image = ValidImage();
  Rng rng(0xF122EDull);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = image;
    const size_t pos =
        static_cast<size_t>(rng.NextU64() % mutated.size());
    mutated[pos] = static_cast<char>(
        static_cast<u8>(mutated[pos]) ^ (u8{1} << (rng.NextU64() % 8)));
    // A flip the checksums cover must be rejected; a flip inside ignored
    // padding may legitimately still parse. Either way: no crash, no UB.
    (void)ParseHab(AsSpan(mutated));
  }
}

TEST(VmLoadFuzz, MultiByteGarbageNeverCrashes) {
  const std::string& image = ValidImage();
  Rng rng(0xBAD5EEDull);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = image;
    const size_t pos =
        static_cast<size_t>(rng.NextU64() % (mutated.size() - 8));
    const u64 garbage = rng.NextU64();
    std::memcpy(mutated.data() + pos, &garbage, sizeof garbage);
    (void)ParseHab(AsSpan(mutated));
  }
}

TEST(VmLoadFuzz, WrongMagicIsInvalidArgument) {
  std::string mutated = ValidImage();
  mutated[0] = 'X';
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmLoadFuzz, FutureVersionIsUnsupported) {
  std::string mutated = ValidImage();
  const u32 future = kHabVersion + 1;
  std::memcpy(mutated.data() + kHabVersionOffset, &future, sizeof future);
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(parsed.status().ToString().find("version 3"), std::string::npos);
}

TEST(VmLoadFuzz, ForeignEndiannessIsUnsupported) {
  std::string mutated = ValidImage();
  const u32 swapped = 0x04030201u;
  std::memcpy(mutated.data() + kHabEndianOffset, &swapped, sizeof swapped);
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnsupported);
}

TEST(VmLoadFuzz, GarbageEndianTagIsInvalidArgument) {
  std::string mutated = ValidImage();
  const u32 garbage = 0xDEADBEEFu;
  std::memcpy(mutated.data() + kHabEndianOffset, &garbage, sizeof garbage);
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmLoadFuzz, OversizedSectionLengthRejected) {
  // Blow up each section-table length field in turn; the reader must fail
  // the range check (or the checksum), not read out of bounds.
  const std::string& image = ValidImage();
  u32 section_count;
  std::memcpy(&section_count, image.data() + kHabSectionCountOffset,
              sizeof section_count);
  ASSERT_GT(section_count, 0u);
  for (u32 i = 0; i < section_count; ++i) {
    std::string mutated = image;
    const size_t entry = kHabHeaderBytes + size_t{i} * kHabSectionEntryBytes;
    const u64 huge = u64{1} << 60;
    std::memcpy(mutated.data() + entry + 16, &huge, sizeof huge);
    auto parsed = ParseHab(AsSpan(mutated));
    EXPECT_FALSE(parsed.ok()) << "section " << i;
  }
}

TEST(VmLoadFuzz, SectionOffsetPastEofRejected) {
  std::string mutated = ValidImage();
  const u64 past = mutated.size() + 1024;
  std::memcpy(mutated.data() + kHabHeaderBytes + 8, &past, sizeof past);
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmLoadFuzz, DeclaredFileSizeMismatchRejected) {
  // Appending trailing garbage changes the real size away from the header's
  // declared size — a truncation/extension detector independent of where
  // the extra bytes land.
  std::string mutated = ValidImage();
  mutated += "trailing garbage";
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmLoadFuzz, ZeroSectionCountRejected) {
  std::string mutated = ValidImage();
  const u32 zero = 0;
  std::memcpy(mutated.data() + kHabSectionCountOffset, &zero, sizeof zero);
  EXPECT_FALSE(ParseHab(AsSpan(mutated)).ok());
}

TEST(VmLoadFuzz, HugeSectionCountRejected) {
  std::string mutated = ValidImage();
  const u32 huge = 0x7FFFFFFFu;
  std::memcpy(mutated.data() + kHabSectionCountOffset, &huge, sizeof huge);
  EXPECT_FALSE(ParseHab(AsSpan(mutated)).ok());
}

// ---------------------------------------------------------------------------
// Checksum-fixed corruption: a HAB carrying a searched GraphPlan
// (HabSection::kPlan) or a plain one with a mutated section payload must
// come back as a typed error (or, for mutations the decoder cannot see,
// still parse) — never crash. The checksum is recomputed after each
// mutation so the bytes actually reach the section decoder instead of
// being rejected upstream.
// ---------------------------------------------------------------------------

// One graph-beam compiled artifact (plan section present), shared by the
// plan-corruption cases.
const std::string& PlanImage() {
  static const std::string* image = [] {
    Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
    compiler::CompileOptions opt;
    opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
    auto artifact = compiler::HtvmCompiler{opt}.Compile(g);
    HTVM_CHECK(artifact.ok());
    HTVM_CHECK_MSG(!artifact->plan.empty(), "graph-beam produced no plan");
    HabMeta meta;
    meta.model_name = "dscnn-planned";
    meta.producer = "fuzz";
    return new std::string(SerializeHab(*artifact, meta));
  }();
  return *image;
}

// Section-table entry layout (see hab.cpp): id @0, offset @8, bytes @16,
// checksum @24.
struct SectionEntry {
  u32 id = 0;
  size_t entry_pos = 0;
  u64 offset = 0;
  u64 bytes = 0;
};

std::vector<SectionEntry> SectionEntries(const std::string& image) {
  u32 section_count;
  std::memcpy(&section_count, image.data() + kHabSectionCountOffset,
              sizeof section_count);
  std::vector<SectionEntry> entries;
  for (u32 i = 0; i < section_count; ++i) {
    SectionEntry e;
    e.entry_pos = kHabHeaderBytes + size_t{i} * kHabSectionEntryBytes;
    std::memcpy(&e.id, image.data() + e.entry_pos, sizeof e.id);
    std::memcpy(&e.offset, image.data() + e.entry_pos + 8, sizeof e.offset);
    std::memcpy(&e.bytes, image.data() + e.entry_pos + 16, sizeof e.bytes);
    entries.push_back(e);
  }
  return entries;
}

SectionEntry FindSectionEntry(const std::string& image, HabSection id) {
  for (const SectionEntry& e : SectionEntries(image)) {
    if (e.id == static_cast<u32>(id)) return e;
  }
  return {};
}

// Rewrites a section's checksum to match its (mutated) payload, so the
// corruption is seen by the section decoder, not the checksum verifier.
void FixChecksum(std::string& image, const SectionEntry& entry) {
  const u64 sum = HabChecksum(
      reinterpret_cast<const u8*>(image.data()) + entry.offset,
      static_cast<size_t>(entry.bytes));
  std::memcpy(image.data() + entry.entry_pos + 24, &sum, sizeof sum);
}

TEST(VmLoadFuzz, PlanImageParsesAndCarriesThePlan) {
  auto parsed = ParseHab(AsSpan(PlanImage()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->artifact.plan.empty());
}

TEST(VmLoadFuzz, CorruptedPlanSectionsAreTypedErrors) {
  const std::string& image = PlanImage();
  const SectionEntry plan = FindSectionEntry(image, HabSection::kPlan);
  ASSERT_GT(plan.bytes, 0u) << "plan section missing from the corpus";
  Rng rng(0x91A7F1A2ull);
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = image;
    // 1-4 byte flips inside the plan payload, then a checksum fix-up.
    const int flips = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          plan.offset + rng.NextU64() % plan.bytes);
      mutated[pos] = static_cast<char>(
          static_cast<u8>(mutated[pos]) ^ (u8{1} << (rng.NextU64() % 8)));
    }
    FixChecksum(mutated, plan);
    auto parsed = ParseHab(AsSpan(mutated));
    if (!parsed.ok()) {
      ++rejected;
      // Every rejection must be a typed status, not an internal crash
      // bubbled up some other way.
      EXPECT_TRUE(parsed.status().code() == StatusCode::kInvalidArgument ||
                  parsed.status().code() == StatusCode::kUnsupported)
          << parsed.status().ToString();
    }
  }
  // Most mutations break the plan grammar (or its structural rules); if
  // nearly everything still parsed, the parser is not actually validating.
  EXPECT_GT(rejected, 100);
}

TEST(VmLoadFuzz, ChecksumFixedMutationsOfEverySectionAreTypedErrors) {
  // 1-8 random bytes overwritten inside one section, 300 seeded trials per
  // section of both corpora. Parse-only: executing a HAB whose
  // checksum-consistent payload lies about its schedules is a separate,
  // semantic-validation problem.
  for (const std::string* image : {&ValidImage(), &PlanImage()}) {
    for (const SectionEntry& entry : SectionEntries(*image)) {
      ASSERT_GT(entry.bytes, 0u) << "section " << entry.id;
      Rng rng(0x5EC7u + entry.id);
      for (int trial = 0; trial < 300; ++trial) {
        std::string mutated = *image;
        const int bytes = 1 + static_cast<int>(rng.NextU64() % 8);
        for (int b = 0; b < bytes; ++b) {
          const size_t pos = static_cast<size_t>(
              entry.offset + rng.NextU64() % entry.bytes);
          mutated[pos] = static_cast<char>(rng.NextU64());
        }
        FixChecksum(mutated, entry);
        auto parsed = ParseHab(AsSpan(mutated));
        // NotFound is the op registry's answer to a mangled op name.
        const StatusCode code = parsed.status().code();
        EXPECT_TRUE(parsed.ok() || code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kUnsupported ||
                    code == StatusCode::kNotFound)
            << "section " << entry.id << ": " << parsed.status().ToString();
      }
    }
  }
}

TEST(VmLoadFuzz, GarbagePlanPayloadIsTypedError) {
  std::string mutated = PlanImage();
  const SectionEntry plan = FindSectionEntry(mutated, HabSection::kPlan);
  ASSERT_GT(plan.bytes, 0u);
  // Stomp the whole payload (including the string length prefix) with a
  // pattern that is neither a valid length nor valid plan text.
  for (u64 i = 0; i < plan.bytes; ++i) {
    mutated[static_cast<size_t>(plan.offset + i)] = '\xAB';
  }
  FixChecksum(mutated, plan);
  auto parsed = ParseHab(AsSpan(mutated));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htvm::vm
