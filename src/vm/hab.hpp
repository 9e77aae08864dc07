// HAB — the HTVM deployable binary artifact format ("htvm-artifact v2").
//
// A HAB file is what leaves the compiler and reaches a runner process that
// has no compiler linked: a fixed little-endian header (magic, format
// version, endianness tag), a section table with per-section byte ranges and
// FNV-1a checksums, and 8-byte-aligned flat section payloads carrying
// everything compiler::Artifact carries — the lowered kernel graph with
// constant payloads, every compiled kernel with perf counters and DORY tile
// schedule, the dispatch log, the pass timeline, the L2 memory plan, the
// binary-size report and the DianaConfig. The layout is documented in
// docs/deployable_artifact.md; in code, each record's layout is one field
// list that both SerializeHab and ParseHab walk (vm/codec.hpp).
//
// Round-trip contract: SerializeHab(ParseHab(x)) == x, and parsing
// reconstructs bit-identical state, so a runner executing a HAB is
// byte-exact with the in-process compile that produced it. HAB is the only
// artifact encoding: the artifact cache persists it, and differential tests
// compare its canonical form (SerializeHabForDiff).
//
// Failure model: every malformed input — truncation, bit flip, wrong magic,
// future format version, foreign endianness, oversized section lengths, a
// checksum-valid file that fails ValidateArtifact — degrades to a typed
// error Status (Unsupported for version/endianness skew, InvalidArgument
// for corruption), never a crash. The artifact cache treats any load error
// as a miss and recompiles.
//
// This header is compiler-free on purpose: htvm_vm links runtime + artifact
// model + hw, never src/compiler (enforced by vm_link_test and a CMake
// link-closure check), so `htvm-run` ships without the compiler.
#pragma once

#include <span>
#include <string>

#include "compiler/artifact.hpp"

namespace htvm::vm {

// --- on-disk constants (exposed for the corrupt-file fuzz battery) --------

inline constexpr char kHabMagic[8] = {'H', 'T', 'V', 'M', 'H', 'A', 'B', '\n'};
inline constexpr u32 kHabVersion = 2;
// Written as a native u32; a reader on a foreign-endian host sees the
// byte-swapped value and rejects with a typed Unsupported status.
inline constexpr u32 kHabEndianTag = 0x01020304u;
inline constexpr u32 kHabHeaderBytes = 64;
inline constexpr u32 kHabSectionEntryBytes = 32;

// Fixed header field offsets (bytes from the start of the file).
inline constexpr size_t kHabMagicOffset = 0;
inline constexpr size_t kHabVersionOffset = 8;
inline constexpr size_t kHabEndianOffset = 12;
inline constexpr size_t kHabHeaderBytesOffset = 16;
inline constexpr size_t kHabSectionCountOffset = 20;
inline constexpr size_t kHabFileBytesOffset = 24;

// Section ids (u32 in the section table). Unknown ids are skipped on load —
// a v2 reader stays forward-compatible with additive v2.x producers.
enum class HabSection : u32 {
  kMeta = 1,      // model name + producer tag
  kHwConfig = 2,  // hw::DianaConfig
  kSize = 3,      // tvmgen::BinarySizeReport
  kMemPlan = 4,   // compiler::MemoryPlan
  kPasses = 5,    // compiler::PassTimeline
  kDispatch = 6,  // compiler::DispatchLog
  kGraph = 7,     // lowered kernel graph incl. constant payloads
  kKernels = 8,   // compiled kernels + perf + DORY schedules
  // SoC identity (hw/soc.hpp). Written only for non-default SoCs, so
  // "diana" HABs stay byte-identical to pre-SoC-family files; a missing
  // section loads as "diana". Skipped (not rejected) by older readers.
  kSoc = 9,       // SocDescription name the artifact was compiled for
  // Searched fusion/dispatch GraphPlan (dory/graph_plan.hpp), in its own
  // text form. Written only when a graph-level schedule search ran, so
  // heuristic HABs stay byte-identical; a missing section loads as the
  // empty plan. The embedded plan names its SoC, and the loader refuses a
  // plan whose SoC disagrees with the artifact's.
  kPlan = 10,     // serialized dory::GraphPlan
};

// Producer-side metadata carried in the kMeta section; lets a runner or a
// --preload-dir scan name a model without re-deriving it from the filename.
struct HabMeta {
  std::string model_name;
  std::string producer;  // e.g. "htvmc", "artifact-cache"
};

// Per-section accounting surfaced by the loader (docs + `htvm-run --meta`).
struct HabSectionInfo {
  u32 id = 0;
  i64 offset = 0;
  i64 bytes = 0;
  u64 checksum = 0;
};

struct ParsedHab {
  compiler::Artifact artifact;
  HabMeta meta;
  std::vector<HabSectionInfo> sections;
};

// FNV-1a 64 over a byte range — the per-section checksum.
u64 HabChecksum(const u8* data, size_t size);

// True when `data` starts with the HAB magic (cheap format sniffing).
bool LooksLikeHab(std::span<const u8> data);
bool LooksLikeHab(const std::string& data);

// Serializes an artifact to the flat v2 binary image. Deterministic: two
// identical artifacts produce identical bytes (pass wall-times included —
// compare SerializeHabForDiff when those must not matter).
std::string SerializeHab(const compiler::Artifact& artifact,
                         const HabMeta& meta = {});

// The canonical diff form: SerializeHab of a copy with every
// pass_timeline[].wall_ns zeroed and an empty HabMeta. Two compiles of the
// same (network, options) produce identical bytes regardless of thread
// count or machine load, so differential tests (parallel vs sequential
// compile, cache hit vs cold compile) compare this form: kernels, order,
// schedules, memory plan, size report and the timeline's pass/node-delta
// shape are all still covered byte-for-byte.
std::string SerializeHabForDiff(const compiler::Artifact& artifact);

// Validates header, version, endianness, section table and checksums,
// reconstructs the artifact and runs ValidateArtifact on it. Parses straight
// out of `data` (the loader hands in an mmap'd file), copying only into the
// artifact's own storage.
Result<ParsedHab> ParseHab(std::span<const u8> data);

// InvalidArgument unless every accelerator schedule and its perf rebuild
// from the artifact's own graph and hw config, and kernels, composites and
// L2 buffers line up (vm/validate.cpp; docs/deployable_artifact.md).
Status ValidateArtifact(const compiler::Artifact& artifact);

// Atomic file write (tmp + rename): concurrent writers of one path leave
// readers seeing nothing or a complete file.
Status SaveHab(const compiler::Artifact& artifact, const HabMeta& meta,
               const std::string& path);

}  // namespace htvm::vm
