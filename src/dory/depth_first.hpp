// Depth-first (fused-layer) execution — the extension direction the paper
// cites as [12] (Goetschalckx et al.) and MCUNetv2's patch-based inference:
// execute two consecutive accelerator layers tile-by-tile so the
// intermediate activation map never round-trips through L2. This trades
// halo recomputation in the first layer for the intermediate tensor's L2
// buffer and its DMA traffic — decisive when the intermediate map is large
// (early high-resolution layers).
//
// Scope: a pair of digital conv-like layers (conv/dwconv) where the second
// consumes the first's output directly. Channels stay whole (the second
// layer needs all of its input channels per output pixel); tiling is
// spatial plus the second layer's output channels.
#pragma once

#include "dory/schedule.hpp"
#include "ir/graph.hpp"
#include "tensor/quantize.hpp"

namespace htvm::dory {

struct FusedPairSpec {
  AccelLayerSpec first;
  AccelLayerSpec second;
};

// Extracts the layer pair from a depth-first fused composite body
// ("diana.fused2" — two conv-like quantized chains back to back), reading
// each conv anchor with AnalyzeAnchor. Fails with Unsupported when the body
// is not exactly two conv anchors in producer order.
Result<FusedPairSpec> AnalyzeFusedPairBody(const Graph& body);

// Checks the chain is fusable: geometry chains, kinds are conv/dwconv, and
// the first layer's full output channels fit the story above.
Status ValidateFusedPair(const FusedPairSpec& pair);

struct FusedTileSolution {
  // Output tile of the *second* layer; everything else derives from it.
  i64 oy2_t = 1, ox2_t = 1;
  // Derived intermediate / first-layer input tile extents (with halo).
  i64 iy2_t = 1, ix2_t = 1;  // == first-layer output tile
  i64 iy1_t = 1, ix1_t = 1;
  i64 n_y = 1, n_x = 1;
  i64 l1_bytes = 0;        // in1 + intermediate + out2, one buffer set
  bool needs_tiling = false;
};

struct FusedSchedule {
  FusedPairSpec pair;
  FusedTileSolution solution;
  // Cost aggregates (digital target).
  i64 compute_cycles = 0;       // both layers, incl. halo recompute
  i64 weight_dma_cycles = 0;    // both weight sets
  i64 act_dma_cycles = 0;       // in1 + out2 only (no intermediate!)
  i64 overhead_cycles = 0;
  i64 full_cycles = 0;
  i64 macs = 0;                 // useful MACs (excl. recompute)
  i64 recompute_macs = 0;       // layer-1 halo overlap work
  // What sequential execution would have paid for the intermediate.
  i64 intermediate_bytes = 0;
};

// Solves the fused spatial tiling for the given L1 budget and builds the
// cost summary. Fails when even a 1x1 output tile cannot fit.
Result<FusedSchedule> BuildDepthFirstSchedule(const FusedPairSpec& pair,
                                              const hw::DianaConfig& cfg,
                                              const TilerOptions& options);

// Functional depth-first execution: bit-exact with running the two layers
// sequentially (property-tested). Weights/biases in layer order.
Result<Tensor> ExecuteDepthFirst(const FusedSchedule& schedule,
                                 const Tensor& input, const Tensor& w1,
                                 const Tensor& b1, const Tensor& w2,
                                 const Tensor& b2);

}  // namespace htvm::dory
