#include "compiler/accel_spec.hpp"

#include "dory/weight_layout.hpp"
#include "hw/analog_accel.hpp"
#include "support/string_utils.hpp"

namespace htvm::compiler {

bool DigitalSupports(const dory::AccelLayerSpec& spec) {
  using dory::LayerKind;
  if (spec.weight_dtype != DType::kInt8 && spec.kind != LayerKind::kAdd) {
    return false;  // the digital path has no ternary kernels
  }
  switch (spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDwConv2d:
      if (spec.sy < 1 || spec.sy > 4 || spec.sx < 1 || spec.sx > 4) {
        return false;
      }
      if (spec.kh > 11 || spec.kw > 11) return false;
      return true;
    case LayerKind::kDense:
    case LayerKind::kAdd:
    case LayerKind::kMatmul:
      return true;
  }
  return false;
}

bool AnalogSupports(const dory::AccelLayerSpec& spec,
                    const hw::DianaConfig& cfg) {
  using dory::LayerKind;
  if (spec.weight_dtype != DType::kTernary) return false;
  switch (spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDense: {
      if (spec.sy < 1 || spec.sy > 2 || spec.sx < 1 || spec.sx > 2) {
        return false;
      }
      // The whole input patch unrolls spatially over macro rows.
      hw::AnalogLayerGeom g;
      g.k = spec.k;
      g.c = spec.c;
      g.kh = spec.kh;
      g.kw = spec.kw;
      return hw::AnalogRowsNeeded(g) <= cfg.analog.array_rows;
    }
    case LayerKind::kDwConv2d:
    case LayerKind::kAdd:
    case LayerKind::kMatmul:
      // Activation rows stream through the array too fast to amortize a
      // ternary reprogram per row; matmuls stay on the digital path.
      return false;
  }
  return false;
}

Status CheckL2Fits(const dory::AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                   dory::AccelTarget target) {
  const i64 activations = spec.InputBytes() + spec.OutputBytes();
  const i64 weights = dory::DeployedWeightBytes(spec, target);
  if (activations <= cfg.l2_bytes && weights <= cfg.l2_bytes) {
    return Status::Ok();
  }
  return Status::Unsupported(StrFormat(
      "exceeds L2 (%lld B): activations %lld B, weights %lld B",
      (long long)cfg.l2_bytes, (long long)activations, (long long)weights));
}

}  // namespace htvm::compiler
