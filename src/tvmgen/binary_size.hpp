// Deployed binary-size model (the "Size (kB)" rows of Table I).
//
// A deployed image = runtime + per-kernel code + constant data (weights,
// biases). Two effects from the paper that the model reproduces:
//   - accelerator kernels need *fewer instructions* than CPU loop nests
//     ("DIANA's coarse-grained accelerator requires fewer instructions than
//     the RISC-V core", up to -12.3% on ResNet), and
//   - analog ternary weights are 2-bit but padded to the IMC macro row
//     groups, so the binary can grow or shrink depending on layer geometry.
//
// Code-size constants (kSizeModel) approximate -O3 RISC-V GCC output for
// TVM-style kernels; they are inputs to the model, not measurements.
// cache::OptionsFingerprint folds every one of them, so editing a constant
// invalidates cached artifacts.
#pragma once

#include <string>

#include "dory/tiler.hpp"
#include "ir/graph.hpp"

namespace htvm::tvmgen {

struct SizeModel {
  // Fixed image overhead: crt0, runtime, graph executor, main.
  i64 tvm_runtime_bytes = 22 * 1024;   // plain TVM C runtime
  i64 htvm_runtime_bytes = 20 * 1024;  // HTVM's lower-overhead runtime
  // Per-kernel code size (bytes of .text).
  i64 cpu_conv_code = 1800;    // unrolled int8 conv loop nest
  i64 cpu_dwconv_code = 1400;
  i64 cpu_dense_code = 900;
  i64 cpu_pool_code = 700;
  i64 cpu_softmax_code = 900;
  i64 cpu_elemwise_code = 350;
  i64 cpu_fused_epilogue_code = 120;  // fused requant/activation tail
  i64 accel_kernel_code = 480;        // driver call + descriptor setup
  i64 accel_tile_loop_code = 260;     // DORY tile loop + DMA programming
  // Hand-tuned library kernels trade code size for speed (unrolled SIMD
  // bodies); applied to anchors of kernel_lib="tuned" composites.
  double tuned_kernel_code_factor = 1.4;
};
inline constexpr SizeModel kSizeModel{};

struct BinarySizeReport {
  i64 runtime_bytes = 0;
  i64 code_bytes = 0;
  i64 weight_bytes = 0;
  i64 Total() const { return runtime_bytes + code_bytes + weight_bytes; }
  std::string ToString() const;
};

// Code bytes for one cpu composite kernel (anchor + fused epilogue ops).
i64 CpuKernelCodeBytes(const Node& composite);

// Constant bytes (weights + biases + shift scalars) embedded in a cpu
// composite.
i64 CpuKernelWeightBytes(const Node& composite);

// Code bytes for one accelerator kernel (driver + tile loop when tiled).
i64 AccelKernelCodeBytes(bool tiled);

}  // namespace htvm::tvmgen
