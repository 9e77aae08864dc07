// Standard fusable op-chain patterns of the quantized deployment flow.
//
// ConvChainPattern() is the reproduction of the paper's Listing 1:
//
//   conv2d -> bias_add -> right_shift(const) -> clip -> cast{int8}
//          [-> clip]    (optional activation)
//
// The same chains drive both accelerator dispatch (with accelerator-aware
// predicates) and TVM-native CPU kernel fusion (unconditionally).
//
// Labels bound by every chain: "anchor" (the accumulating op), "weight"
// (its weight constant, conv/dense only), "cast", and "act" when the
// optional activation clip is present.
#pragma once

#include "pattern/pattern.hpp"

namespace htvm {

PatternPtr ConvChainPattern();   // covers depthwise via the groups attr
PatternPtr DenseChainPattern();
PatternPtr AddChainPattern();    // residual add + requant

// matmul([.., M, K] x const [N, K]) + requant — the transformer projection
// chain; same label set as the conv/dense chains.
PatternPtr MatmulChainPattern();

// matmul(activation, activation) + bias-free requant — the attention
// scores / context matmuls when the MHSA block is executed per-op.
PatternPtr MatmulActChainPattern();

// Whole encoder attention block: QKV head-split projections -> scaled int8
// softmax over Q K^T -> context matmul -> head merge -> output projection
// (+ requant). Binds "anchor" on the output projection matmul,
// "q_proj"/"k_proj"/"v_proj" on the head projection matmuls, and "probs".
PatternPtr MultiHeadSelfAttentionPattern();

}  // namespace htvm
