#include "pattern/std_patterns.hpp"

namespace htvm {
namespace {

// bias_add -> right_shift -> clip -> cast{int8} [-> clip] on top of anchor.
PatternPtr RequantEpilogue(PatternPtr anchor) {
  auto bias = IsOp(OpId::kBiasAdd, {std::move(anchor), IsConstant()});
  auto shift = IsOp(OpId::kRightShift, {std::move(bias), IsConstant()});
  auto clip = IsOp(OpId::kClip, {std::move(shift)});
  auto cast = Labeled(HasAttr(IsOp(OpId::kCast, {std::move(clip)}), "dtype",
                              std::string("int8")),
                      "cast");
  return Labeled(Optional(std::move(cast), OpId::kClip), "act");
}

// Requant without bias (residual adds carry no bias constant).
PatternPtr RequantEpilogueNoBias(PatternPtr anchor) {
  auto shift = IsOp(OpId::kRightShift, {std::move(anchor), IsConstant()});
  auto clip = IsOp(OpId::kClip, {std::move(shift)});
  auto cast = Labeled(HasAttr(IsOp(OpId::kCast, {std::move(clip)}), "dtype",
                              std::string("int8")),
                      "cast");
  return Labeled(Optional(std::move(cast), OpId::kClip), "act");
}

}  // namespace

PatternPtr ConvChainPattern() {
  auto conv = Labeled(
      IsOp(OpId::kConv2d, {Wildcard(), Labeled(IsConstant(), "weight")}),
      "anchor");
  return RequantEpilogue(std::move(conv));
}

PatternPtr DenseChainPattern() {
  auto dense = Labeled(
      IsOp(OpId::kDense, {Wildcard(), Labeled(IsConstant(), "weight")}),
      "anchor");
  return RequantEpilogue(std::move(dense));
}

PatternPtr AddChainPattern() {
  auto add = Labeled(IsOp(OpId::kAdd, {Wildcard(), Wildcard()}), "anchor");
  return RequantEpilogueNoBias(std::move(add));
}

PatternPtr MatmulChainPattern() {
  // Only the dense-layout [N, K] weight form is offloadable; the tiler maps
  // it onto the (M, N, K) matmul tiling space.
  auto weight = Labeled(IsConstant(), "weight");
  auto mm =
      Labeled(HasAttr(IsOp(OpId::kMatmul, {Wildcard(), std::move(weight)}),
                      "transpose_b", i64{1}),
              "anchor");
  return RequantEpilogue(std::move(mm));
}

PatternPtr MatmulActChainPattern() {
  // Both operands are activations (attention scores / context matmuls), so
  // there is no bias and no weight constant; any transpose_b.
  auto mm = Labeled(IsOp(OpId::kMatmul, {Wildcard(), Wildcard()}), "anchor");
  return RequantEpilogueNoBias(std::move(mm));
}

namespace {

// requant epilogues without the trailing label collisions — the MHSA tree
// instantiates several epilogues, and MatchResult labels are last-write-wins.
PatternPtr PlainRequant(PatternPtr anchor, bool with_bias) {
  PatternPtr top = std::move(anchor);
  if (with_bias) {
    top = IsOp(OpId::kBiasAdd, {std::move(top), IsConstant()});
  }
  auto shift = IsOp(OpId::kRightShift, {std::move(top), IsConstant()});
  auto clip = IsOp(OpId::kClip, {std::move(shift)});
  auto cast = HasAttr(IsOp(OpId::kCast, {std::move(clip)}), "dtype",
                      std::string("int8"));
  return Optional(std::move(cast), OpId::kClip);
}

// One head-split projection branch: matmul(x, W) + requant -> reshape
// [S, H, dh] -> transpose [H, S, dh]. The matmul is bound to `label`.
PatternPtr HeadProjection(const std::string& label) {
  auto mm = Labeled(
      HasAttr(IsOp(OpId::kMatmul, {Wildcard(), IsConstant()}), "transpose_b",
              i64{1}),
      label);
  auto q8 = PlainRequant(std::move(mm), /*with_bias=*/true);
  auto heads = IsOp(OpId::kReshape, {std::move(q8)});
  return IsOp(OpId::kTranspose, {std::move(heads)});
}

}  // namespace

PatternPtr MultiHeadSelfAttentionPattern() {
  // QKV projections (shared input x dedupes into one composite input) ->
  // scaled int8 softmax over Q K^T -> context matmul -> head merge ->
  // output projection. The whole block becomes one `diana.mhsa` composite.
  auto scores = HasAttr(
      IsOp(OpId::kMatmul, {HeadProjection("q_proj"), HeadProjection("k_proj")}),
      "transpose_b", i64{1});
  auto probs =
      Labeled(IsOp(OpId::kSoftmax, {PlainRequant(std::move(scores),
                                               /*with_bias=*/false)}),
              "probs");
  auto ctx = HasAttr(
      IsOp(OpId::kMatmul, {std::move(probs), HeadProjection("v_proj")}),
      "transpose_b", i64{0});
  auto merged = IsOp(
      OpId::kReshape,
      {IsOp(OpId::kTranspose,
            {PlainRequant(std::move(ctx), /*with_bias=*/false)})});
  auto proj = Labeled(
      HasAttr(IsOp(OpId::kMatmul, {std::move(merged), IsConstant()}),
              "transpose_b", i64{1}),
      "anchor");
  return RequantEpilogue(std::move(proj));
}

}  // namespace htvm
