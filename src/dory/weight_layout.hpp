// Deployed weight storage (DORY step 3: "stores the weights in the SoC's
// global memory (L2) in the most optimal data layout").
//
// Digital: int8 weights, 1 byte per element, serialized tile-major in the
// schedule's fetch order (dory::TileMajorWeights, c_codegen.hpp) so each
// weight tile streams to the accelerator as one contiguous DMA.
//
// Analog: ternary weights packed at 2 bits/cell, rows padded to the macro
// row-group — the storage model behind the "ternary can still grow the
// binary" observation in Sec. IV-C.
#pragma once

#include "dory/tiler.hpp"

namespace htvm::dory {

// Deployed L2 bytes for the layer's weights (+bias) under `target`.
i64 DeployedWeightBytes(const AccelLayerSpec& spec, AccelTarget target);

}  // namespace htvm::dory
