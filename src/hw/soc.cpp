#include "hw/soc.hpp"

#include <algorithm>

namespace htvm::hw {
namespace {

SocDescription MakeL1Half() {
  SocDescription soc;
  soc.name = "diana-l1half";
  soc.config.l1_bytes = 128 * 1024;
  return soc;
}

SocDescription MakeL2X2() {
  SocDescription soc;
  soc.name = "diana-l2x2";
  soc.config.l2_bytes = 1024 * 1024;
  return soc;
}

SocDescription MakePe32() {
  SocDescription soc;
  soc.name = "diana-pe32";
  soc.config.digital.pe_rows = 32;
  soc.config.digital.pe_cols = 32;
  soc.config.digital.weight_mem_bytes = 128 * 1024;
  soc.config.digital.post_simd_lanes = 32;
  return soc;
}

SocDescription MakeNoAnalog() {
  SocDescription soc;
  soc.name = "diana-noanalog";
  soc.has_analog = false;
  return soc;
}

SocDescription MakeScalar() {
  SocDescription soc;
  soc.name = "diana-scalar";
  soc.simd = CpuSimdClass::kScalar;
  // Plain RV32IMC loop nests: no packed int8 MACs, so the accumulating ops
  // pay roughly the 4-lane SIMD factor back, and a "tuned SIMD library"
  // buys nothing.
  CpuConfig& cpu = soc.config.cpu;
  cpu.conv_cycles_per_mac *= 2.5;
  cpu.dwconv_cycles_per_mac *= 2.5;
  cpu.dense_cycles_per_mac *= 2.5;
  cpu.elemwise_cycles_per_elem *= 2.0;
  cpu.pool_cycles_per_elem *= 2.0;
  cpu.requant_cycles_per_elem *= 2.0;
  cpu.tuned_library_speedup = 1.0;
  return soc;
}

}  // namespace

SocRegistry::SocRegistry() {
  socs_.push_back(SocDescription::Diana());
  socs_.push_back(MakeL1Half());
  socs_.push_back(MakeL2X2());
  socs_.push_back(MakePe32());
  socs_.push_back(MakeNoAnalog());
  socs_.push_back(MakeScalar());
}

SocRegistry& SocRegistry::Global() {
  static SocRegistry registry;
  return registry;
}

Status SocRegistry::Register(SocDescription desc) {
  if (desc.name.empty()) {
    return Status::InvalidArgument("SocRegistry: empty SoC name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const SocDescription& soc : socs_) {
    if (soc.name == desc.name) {
      return Status::InvalidArgument("SocRegistry: SoC '" + desc.name +
                                     "' is already registered");
    }
  }
  socs_.push_back(std::move(desc));
  return Status::Ok();
}

Result<SocDescription> SocRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SocDescription& soc : socs_) {
    if (soc.name == name) return soc;
  }
  std::string known;
  std::vector<std::string> names;
  for (const SocDescription& soc : socs_) names.push_back(soc.name);
  std::sort(names.begin(), names.end());
  for (const std::string& n : names) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::NotFound("unknown SoC '" + name + "' (registered: " + known +
                          ")");
}

bool SocRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SocDescription& soc : socs_) {
    if (soc.name == name) return true;
  }
  return false;
}

std::vector<std::string> SocRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SocDescription& soc : socs_) names.push_back(soc.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<SocDescription> FindSoc(const std::string& name) {
  return SocRegistry::Global().Find(name);
}

}  // namespace htvm::hw
