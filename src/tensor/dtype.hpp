// Element datatypes of the quantized deployment flow.
//
// DIANA's compute domains (Sec. III-C of the paper):
//   - digital accelerator: int8 activations & weights, int32 accumulators
//   - analog IMC accelerator: 7-bit inputs, *ternary* weights {-1, 0, +1}
//   - CPU fallback kernels: int8 with int32 accumulation
//
// kTernary is a first-class dtype: logically each element is an int8 in
// {-1,0,+1}; its *storage* footprint differs (2 bits packed, plus IMC macro
// padding) which the binary-size model accounts for separately.
#pragma once

#include <string>

#include "support/common.hpp"

namespace htvm {

enum class DType : u8 {
  kInt8 = 0,
  kInt16,
  kInt32,
  kFloat32,
  kTernary,  // values in {-1, 0, +1}; unpacked in-memory as int8
};

// In-memory (simulator) size of one element in bytes. Ternary is held
// unpacked as int8 in simulation; packed size is a storage-model concern
// (see dory/weight_layout.hpp).
i64 DTypeSizeBytes(DType t);

// Bits per element in *deployed* storage: 8/16/32 for integers, 2 for
// ternary (before IMC padding).
i64 DTypeStorageBits(DType t);

const char* DTypeName(DType t);

// Parses "int8", "int32", "ternary", ... Returns false on unknown names.
bool ParseDType(const std::string& name, DType* out);

// Calls `f` with a value of t's in-memory element type (i8 for kInt8 and
// kTernary, i16, i32, float), so a kernel resolves its dtype once per call
// and then loops over typed pointers.
template <typename F>
void VisitDType(DType t, F&& f) {
  switch (t) {
    case DType::kInt8:
    case DType::kTernary: return f(i8{});
    case DType::kInt16: return f(i16{});
    case DType::kInt32: return f(i32{});
    case DType::kFloat32: return f(float{});
  }
  HTVM_UNREACHABLE("bad dtype");
}

}  // namespace htvm
