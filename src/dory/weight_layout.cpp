#include "dory/weight_layout.hpp"

#include "hw/analog_accel.hpp"

namespace htvm::dory {

i64 DeployedWeightBytes(const AccelLayerSpec& spec, AccelTarget target) {
  const i64 bias_bytes = spec.kind == LayerKind::kAdd ? 0 : spec.k * 4;
  if (target == AccelTarget::kAnalog) {
    hw::AnalogLayerGeom g;
    g.k = spec.k;
    g.c = spec.c;
    g.kh = spec.kh;
    g.kw = spec.kw;
    return hw::AnalogWeightStorageBytes(g) + bias_bytes;
  }
  return spec.WeightElems() + bias_bytes;  // int8, 1 byte/element
}

}  // namespace htvm::dory
