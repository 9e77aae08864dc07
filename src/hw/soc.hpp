// Parameterized SoC families (MATCH / MATCHA direction, PAPERS.md).
//
// HTVM originally modeled exactly one SoC — the DIANA geometry baked into
// hw::DianaConfig's defaults. A SocDescription names one member of a
// *family* of simulated SoCs: the full cost/geometry model (DianaConfig)
// plus the identity facts the geometry alone cannot express — which
// accelerators exist at all, and what CPU SIMD class the host core has.
//
// The process-wide SocRegistry maps names to descriptions. "diana" is the
// default and must reproduce the original single-SoC artifacts
// byte-identically (enforced by tests/soc_family_test.cpp against
// pre-refactor golden reports). The built-in variants model plausible
// hardware generations around the paper's chip: halved L1, doubled L2, a
// 32x32 PE array, an analog-less cost-down part, and a scalar host core.
//
// Everything downstream keys on the description: the compiler threads it
// through dispatch/tiling/planning (CompileOptions::soc), the artifact
// cache's cache::OptionsFingerprint hashes the identity and every config
// field so two SoCs can never collide on one entry, artifacts record their
// SoC name (a HAB section), and
// the serve fleet mixes instances of several SoCs with model-aware
// placement.
#pragma once

#include <mutex>
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

// Thread-safe name -> description registry. Global() comes pre-populated
// with the built-in family (docs/soc_families.md):
//
//   diana          the paper's chip (the default; byte-identical artifacts)
//   diana-l1half   128 kB L1 — every DORY tile bound tightens
//   diana-l2x2     1 MB L2 — bigger models fit without spilling
//   diana-pe32     32x32 PE array + 128 kB digital weight memory
//   diana-noanalog analog IMC absent (cost-down part)
//   diana-scalar   plain RV32IMC host, no XpulpV2 SIMD
class SocRegistry {
 public:
  static SocRegistry& Global();

  // Registers a new SoC. InvalidArgument on an empty name or a duplicate.
  Status Register(SocDescription desc);
  // NotFound (listing the registered names) for unknown names.
  Result<SocDescription> Find(const std::string& name) const;
  bool Has(const std::string& name) const;
  // Registered names, sorted (stable for error messages and sweeps).
  std::vector<std::string> Names() const;

  SocRegistry(const SocRegistry&) = delete;
  SocRegistry& operator=(const SocRegistry&) = delete;

 private:
  SocRegistry();

  mutable std::mutex mu_;
  std::vector<SocDescription> socs_;  // registration order
};

// Convenience: SocRegistry::Global().Find(name).
Result<SocDescription> FindSoc(const std::string& name);

}  // namespace htvm::hw
