#include "tvmgen/binary_size.hpp"

#include "support/string_utils.hpp"

namespace htvm::tvmgen {

std::string BinarySizeReport::ToString() const {
  return StrFormat("runtime=%s code=%s weights=%s total=%s",
                   HumanBytes(runtime_bytes).c_str(),
                   HumanBytes(code_bytes).c_str(),
                   HumanBytes(weight_bytes).c_str(),
                   HumanBytes(Total()).c_str());
}

i64 CpuKernelCodeBytes(const Node& composite) {
  const SizeModel& cfg = kSizeModel;
  HTVM_CHECK(composite.kind == NodeKind::kComposite);
  const bool tuned = composite.attrs.GetString("kernel_lib") == "tuned";
  i64 bytes = 0;
  bool anchor_seen = false;
  for (const Node& n : composite.body->nodes()) {
    if (n.kind != NodeKind::kOp) continue;
    i64 op_bytes = cfg.cpu_elemwise_code;
    if (n.Is(OpId::kConv2d)) {
      const bool dw = n.attrs.GetInt("groups", 1) > 1;
      op_bytes = dw ? cfg.cpu_dwconv_code : cfg.cpu_conv_code;
    } else if (n.Is(OpId::kDense)) {
      op_bytes = cfg.cpu_dense_code;
    } else if (n.Is(OpId::kAvgPool2d) || n.Is(OpId::kMaxPool2d) ||
               n.Is(OpId::kGlobalAvgPool2d)) {
      op_bytes = cfg.cpu_pool_code;
    } else if (n.Is(OpId::kSoftmax)) {
      op_bytes = cfg.cpu_softmax_code;
    } else if (n.Is(OpId::kReshape) || n.Is(OpId::kFlatten)) {
      op_bytes = 0;  // pointer rebinding only
    }
    if (anchor_seen) {
      bytes += cfg.cpu_fused_epilogue_code;
    } else {
      bytes += tuned ? static_cast<i64>(static_cast<double>(op_bytes) *
                                        cfg.tuned_kernel_code_factor)
                     : op_bytes;
      anchor_seen = true;
    }
  }
  return bytes;
}

i64 CpuKernelWeightBytes(const Node& composite) {
  HTVM_CHECK(composite.kind == NodeKind::kComposite);
  i64 bytes = 0;
  for (const Node& n : composite.body->nodes()) {
    if (n.kind != NodeKind::kConstant) continue;
    bytes += n.value.SizeBytes();  // CPU kernels keep int8/int32 layouts
  }
  return bytes;
}

i64 AccelKernelCodeBytes(bool tiled) {
  return kSizeModel.accel_kernel_code +
         (tiled ? kSizeModel.accel_tile_loop_code : 0);
}

}  // namespace htvm::tvmgen
