// DORY-style C code generation for accelerator kernels.
//
// Real DORY emits, per layer, a C function containing the tile loop nest,
// the DMA programming for every tile, and the coarse-grained accelerator
// driver calls (Sec. III-B step 4: "the layer generator creates code that
// performs weight allocation and memory management and drives the
// platform's accelerators"). This emitter produces that function from an
// AccelSchedule, against the call surface of the generated
// "htvm_runtime.h" (compiler/c_runtime_header): one loop nest for every
// layer kind that visits the tiles of AccelSchedule::steps in their order.
//
// Calling convention of an emitted kernel:
//   void <name>(const int8_t* l2_in, int8_t* l2_out);  // all but add
//   void <name>(const int8_t* l2_a, const int8_t* l2_b, int8_t* l2_out);
// Weights/bias live in const arrays named <name>_w / <name>_b emitted by
// the artifact emitter; conv weights are stored tile-major (each (k, c)
// weight tile contiguous, in fetch order) — DORY's "most optimal layout".
#pragma once

#include <string>

#include "dory/schedule.hpp"

namespace htvm::dory {

// Emits the kernel function. `weights_sym`/`bias_sym` are the array symbols
// to reference (empty for add kernels).
Result<std::string> EmitAccelKernelC(const AccelSchedule& schedule,
                                     const std::string& fn_name,
                                     const std::string& weights_sym,
                                     const std::string& bias_sym);

// Byte offset of each (k-tile, c-tile) weight tile in the tile-major
// deployed layout, in the schedule's fetch order. Exposed for the artifact
// emitter (which must serialize weights in the same order) and for tests.
std::vector<i64> TileMajorWeightOffsets(const AccelSchedule& schedule);

// Serializes the weight tensor into the tile-major layout the emitted code
// indexes (conv/dense kinds; int8 target). Ternary analog weights are
// packed 2-bit row-major instead (see PackTernary).
Tensor TileMajorWeights(const AccelSchedule& schedule, const Tensor& weight);

}  // namespace htvm::dory
