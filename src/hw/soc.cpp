#include "hw/soc.hpp"

#include <algorithm>

namespace htvm::hw {
namespace {

// The family, one row per member: its name and how it differs from diana.
struct Member {
  const char* name;
  void (*edit)(SocDescription& soc);
};
constexpr Member kFamily[] = {
    {"diana", [](SocDescription&) {}},
    {"diana-l1half", [](SocDescription& s) { s.config.l1_bytes = 128 << 10; }},
    {"diana-l2x2", [](SocDescription& s) { s.config.l2_bytes = 1024 << 10; }},
    {"diana-pe32",
     [](SocDescription& s) {
       s.config.digital.pe_rows = 32;
       s.config.digital.pe_cols = 32;
       s.config.digital.weight_mem_bytes = 128 << 10;
       s.config.digital.post_simd_lanes = 32;
     }},
    {"diana-noanalog", [](SocDescription& s) { s.has_analog = false; }},
    {"diana-scalar",
     [](SocDescription& s) {
       s.simd = CpuSimdClass::kScalar;
       // Plain RV32IMC loop nests: no packed int8 MACs, so the accumulating
       // ops pay roughly the 4-lane SIMD factor back, and a "tuned SIMD
       // library" buys nothing.
       CpuConfig& cpu = s.config.cpu;
       cpu.conv_cycles_per_mac *= 2.5;
       cpu.dwconv_cycles_per_mac *= 2.5;
       cpu.dense_cycles_per_mac *= 2.5;
       cpu.elemwise_cycles_per_elem *= 2.0;
       cpu.pool_cycles_per_elem *= 2.0;
       cpu.requant_cycles_per_elem *= 2.0;
       cpu.tuned_library_speedup = 1.0;
     }},
};

}  // namespace

Result<SocDescription> FindSoc(const std::string& name) {
  for (const Member& member : kFamily) {
    if (member.name != name) continue;
    SocDescription soc;
    soc.name = member.name;
    member.edit(soc);
    return soc;
  }
  std::string known;
  for (const std::string& n : SocNames()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown SoC '" + name + "' (registered: " + known +
                          ")");
}

std::vector<std::string> SocNames() {
  std::vector<std::string> names;
  for (const Member& member : kFamily) names.push_back(member.name);
  std::sort(names.begin(), names.end());
  return names;
}

const SocRegistry& SocRegistry::Global() {
  static const SocRegistry registry;
  return registry;
}

}  // namespace htvm::hw
