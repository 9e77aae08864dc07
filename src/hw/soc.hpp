// Parameterized SoC families (MATCH / MATCHA direction, PAPERS.md).
//
// HTVM originally modeled exactly one SoC — the DIANA geometry baked into
// hw::DianaConfig's defaults. A SocDescription names one member of a
// *family* of simulated SoCs: the full cost/geometry model (DianaConfig)
// plus the identity facts the geometry alone cannot express — which
// accelerators exist at all, and what CPU SIMD class the host core has.
//
// The family is one constant table in soc.cpp (one row per member) read by
// FindSoc and SocNames. "diana" is the default and must reproduce the
// original single-SoC artifacts byte-identically (enforced by
// tests/soc_family_test.cpp against pre-refactor golden reports). The
// variants model plausible hardware generations around the paper's chip:
// halved L1, doubled L2, a 32x32 PE array, an analog-less cost-down part,
// and a scalar host core.
//
// Everything downstream keys on the description: the compiler threads it
// through dispatch/tiling/planning (CompileOptions::soc), the artifact
// cache's cache::OptionsFingerprint hashes the identity and every config
// field so two SoCs can never collide on one entry, artifacts record their
// SoC name (a HAB section), and
// the serve fleet mixes instances of several SoCs with model-aware
// placement.
#pragma once

#include <string>
#include <vector>

#include "hw/config.hpp"
#include "support/status.hpp"

namespace htvm::hw {

// Host-CPU SIMD class. The default DianaConfig CPU costs assume the
// RV32IMCFXpulpV2 packed-SIMD extensions of the paper's host core; a
// kScalar host pays plain RV32IMC loop nests (and a hand-tuned "SIMD"
// library buys it nothing).
enum class CpuSimdClass : u8 { kScalar = 0, kXpulpV2 = 1 };

struct SocDescription {
  std::string name = "diana";
  DianaConfig config;
  // Accelerator presence. A SoC without an engine never dispatches to it,
  // regardless of what the compile options enable.
  bool has_digital = true;
  bool has_analog = true;
  CpuSimdClass simd = CpuSimdClass::kXpulpV2;

  static SocDescription Diana() { return SocDescription{}; }
};

// The description of member `name` of the built-in family (the kFamily
// table in soc.cpp: diana, the paper's chip and the default, and five
// variants; docs/soc_families.md), or NotFound listing the family.
Result<SocDescription> FindSoc(const std::string& name);

// The family's names, sorted (stable for error messages and sweeps).
std::vector<std::string> SocNames();

// SocNames() under its older spelling, SocRegistry::Global().Names().
struct SocRegistry {
  static const SocRegistry& Global();
  std::vector<std::string> Names() const { return SocNames(); }
};

}  // namespace htvm::hw
