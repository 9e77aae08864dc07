// TVM-native C code generation for fused CPU kernels.
//
// The ops the dispatcher leaves on the CPU lower to standalone C functions
// -- the "operator-fused CPU kernels" of Sec. III. One lowering walks a
// composite body in node order:
//   * conv2d (grouped and depthwise too), dense, matmul (constant or
//     activation rhs) and add open a loop nest that accumulates each output
//     element in uint32_t (wrapping, like the interpreter);
//   * a single-consumer chain of bias_add, right_shift (scalar or
//     per-channel), clip, cast and relu after such an op is folded into the
//     per-element expression inside its loop, each op with its interpreter
//     semantics, so the int32 accumulator never reaches memory;
//   * pooling, global pooling, pad, softmax, layernorm, gelu and transpose
//     emit one block each against the htvm_runtime.h helpers; reshape and
//     flatten alias their input.
// A value gets a static int8/int32 buffer only where a non-elementwise op
// reads it, and the body's output is written straight into `out`.
//
// Calling convention (same as the accelerator kernels):
//   void <name>(const int8_t* in0 [, const int8_t* in1 ...], int8_t* out);
// The kernel owns the constants it reads: each is printed once, at file
// scope before the function, as <name>_k<i> (the GELU table as
// <name>_gelu).
#pragma once

#include <functional>
#include <string>

#include "ir/graph.hpp"
#include "support/status.hpp"

namespace htvm::tvmgen {

// Emits a C function for a cpu composite node. A kernel whose inputs or
// output are not int8, or that holds an op with no lowering, is
// Unsupported.
Result<std::string> EmitCpuKernelC(const Node& composite,
                                   const std::string& fn_name);

// `static const <ctype> <name>[count] = {...};` at file scope, 20 values to
// a line: the one printer of every constant array in the emitted C.
std::string EmitCArray(const char* ctype, const std::string& name, i64 count,
                       const std::function<i64(i64)>& value);

}  // namespace htvm::tvmgen
