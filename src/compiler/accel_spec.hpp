// Accelerator capability rules (the "accelerator-aware rules" of
// Sec. III-A) for DIANA's two accelerators.
//
// The pattern matcher establishes *structure*; these rules check the
// *parameters* — bit widths, strides, kernel sizes, geometry — and make the
// final offload decision. Following the paper: "Since both accelerators
// support convolutions, we discern which accelerator to use by simply
// looking at the provided weights' bit-width: 8-bit precision goes to
// digital, and ternary precision goes to analog."
#pragma once

#include "dory/tiler.hpp"
#include "hw/config.hpp"

namespace htvm::compiler {

// Digital accelerator: int8 (DW)Conv2D / FC / elementwise Add, strides 1-4,
// kernels up to 11x11.
bool DigitalSupports(const dory::AccelLayerSpec& spec);

// Analog IMC: ternary-weight Conv2D (FC deployed as a 1x1 conv); the full
// input patch C*kh*kw must fit the macro's 1152 rows (no partial sums in
// the analog domain); output channels tile over column loads freely.
// Depthwise convolution is NOT supported (the source of the analog-only
// slowdown on DS-CNN/MobileNet in Table I).
bool AnalogSupports(const dory::AccelLayerSpec& spec,
                    const hw::DianaConfig& cfg);

// A deployed layer keeps its input and output activations, and separately
// its weights, in L2 (DORY step 3). Unsupported, with the dispatch reason,
// when either exceeds cfg.l2_bytes: no tiling can deploy such a layer.
Status CheckL2Fits(const dory::AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                   dory::AccelTarget target);

}  // namespace htvm::compiler
