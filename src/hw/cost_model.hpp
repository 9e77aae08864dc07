// Shared analytic latency model (the MATCH direction, PAPERS.md): one
// per-SoC cost oracle that the schedule-search strategies, the dispatcher
// and the serve-layer placement all agree on.
//
// Two kinds of estimates live here:
//
//   - EstimateAccelFullCycles: an O(1) closed-form mirror of the DIANA
//     simulator's per-tile schedule aggregation (dory/schedule.cpp). It
//     charges every tile at the *solver's* tile shape — edge tiles are not
//     clipped — so it is an upper-bound-flavored approximation that ranks
//     candidates in nearly the same order as the ground-truth simulator
//     (tests/schedule_search_test.cpp pins the rank correlation). Search
//     strategies score thousands of candidates with this and reserve the
//     O(tiles) simulator for the shortlist.
//   - Service-time helpers (CpuKernelFullCycles / ServiceUs /
//     BatchSavingUs): the single definition of "how long does a compiled
//     kernel/model take on this SoC" shared by tvmgen::CpuCompositePerf and
//     serve placement, so tuning and placement can never disagree.
//
// The model is constructed from a DianaConfig (or a SocDescription) and
// deliberately knows nothing about dory's layer analyzer: dory flattens a
// candidate into the plain-integer TiledLayerGeom below, keeping the
// dependency arrow dory -> hw.
#pragma once


#include "hw/soc.hpp"

namespace htvm::hw {

// Which accelerator engine a tiled layer runs on.
enum class AccelEngine : u8 { kDigital = 0, kAnalog = 1 };

// Operator class of the tiled layer (mirrors dory::LayerKind).
enum class TiledOp : u8 {
  kConv2d = 0,
  kDwConv2d = 1,
  kDense = 2,
  kAdd = 3,
  kMatmul = 4,  // [M, K] x [N, K]^T: M on oy/iy, K on c, N on k
};

// Full layer geometry plus one candidate tile shape, flattened to plain
// integers. iy_t/ix_t are the *input* extents the output tile consumes
// (already clamped to the real input).
struct TiledLayerGeom {
  TiledOp op = TiledOp::kConv2d;
  // Layer geometry.
  i64 c = 1, iy = 1, ix = 1;  // input channels / rows / cols
  i64 k = 1, oy = 1, ox = 1;  // output channels / rows / cols
  i64 kh = 1, kw = 1;         // kernel
  // Candidate tile shape.
  i64 c_t = 1, k_t = 1, oy_t = 1, ox_t = 1, iy_t = 1, ix_t = 1;
  bool double_buffer = true;
};

class CostModel {
 public:
  explicit CostModel(const DianaConfig& cfg) : cfg_(cfg) {}
  explicit CostModel(const SocDescription& soc) : cfg_(soc.config) {}

  // Closed-form estimate of the layer's full (call-to-return) cycles for
  // one candidate tile shape: compute + weight DMA + exposed activation
  // DMA + per-tile setup + runtime call, under the same double-buffer
  // overlap rule the simulator applies.
  i64 EstimateAccelFullCycles(AccelEngine engine,
                              const TiledLayerGeom& g) const;

  // Full cycles of a CPU-dispatched kernel given its compute cycles (the
  // tvmgen composite cost): compute + the per-call runtime dispatch.
  i64 CpuKernelFullCycles(i64 compute_cycles) const {
    return compute_cycles + cfg_.runtime_call_overhead;
  }

  // Serving-time view of a compiled artifact: wall microseconds of one
  // sequential execution of `total_full_cycles`, and the microseconds a
  // micro-batched repeat execution saves by skipping the per-kernel
  // runtime dispatch (`kernel_count` calls).
  double ServiceUs(i64 total_full_cycles) const {
    return cfg_.CyclesToUs(total_full_cycles);
  }
  double BatchSavingUs(i64 kernel_count) const {
    return cfg_.CyclesToUs(cfg_.runtime_call_overhead * kernel_count);
  }

  // Cycles to move one inter-kernel activation buffer through L2 (DMA
  // setup + streaming at the link rate). The boundary term the graph-level
  // plan search charges between consecutive composites — a depth-first
  // fused pair keeps its intermediate in L1 and skips this entirely.
  i64 L2TransferCycles(i64 bytes) const;

  const DianaConfig& config() const { return cfg_; }

 private:
  DianaConfig cfg_;
};

}  // namespace htvm::hw
