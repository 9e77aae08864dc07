// DORY layer schedule: explicit tile enumeration + cycle accounting.
//
// The layer generator (Sec. III-B step 4) emits, for every tile, the DMA
// transfers and the accelerator invocation. We materialize that schedule as
// a list of TileSteps — the simulator's equivalent of DORY's generated C
// loop nest — and aggregate its cost into the paper's two measurements:
//
//   peak  = weight DMA + accelerator compute  (trigger -> done)
//   full  = peak + exposed activation DMA + per-tile setup + runtime call
//
// Loop order is output-stationary: (k, y, x) outer, input-channel tiles
// innermost, accumulating int32 partial sums in L1 when C is tiled.
// With double buffering, activation DMA of step i+1 overlaps compute of
// step i; only the pipeline fill/drain and any DMA-bound excess remain
// exposed.
#pragma once

#include <vector>

#include "dory/tiler.hpp"
#include "hw/perf.hpp"

namespace htvm::dory {

struct TileStep {
  // Origins in output coordinates (k0, y0, x0) and input channels (c0).
  i64 c0 = 0, k0 = 0, y0 = 0, x0 = 0;
  // Actual (edge-clipped) tile sizes.
  i64 c_t = 1, k_t = 1, oy_t = 1, ox_t = 1, iy_t = 1, ix_t = 1;
  bool first_c = true;  // psum initialization
  bool last_c = true;   // requant + writeback after this step
  // Per-step cost.
  i64 compute_cycles = 0;
  i64 in_dma_cycles = 0;
  i64 out_dma_cycles = 0;
  i64 weight_dma_cycles = 0;
  i64 setup_cycles = 0;

  bool operator==(const TileStep&) const = default;
};

struct AccelSchedule {
  AccelLayerSpec spec;
  TileSolution solution;
  AccelTarget target = AccelTarget::kDigital;
  TilerOptions options;
  std::vector<TileStep> steps;

  // Aggregates (cycles).
  i64 compute_cycles = 0;
  i64 weight_dma_cycles = 0;
  i64 act_dma_cycles = 0;      // raw sum of in/out tile transfers
  i64 exposed_act_cycles = 0;  // after double-buffer overlap
  i64 overhead_cycles = 0;     // per-tile setup + runtime dispatch
  i64 peak_cycles = 0;
  i64 full_cycles = 0;
  i64 macs = 0;

  bool operator==(const AccelSchedule&) const = default;
};

// Solves tiling (unless `solution` is provided) and builds the schedule.
Result<AccelSchedule> BuildSchedule(const AccelLayerSpec& spec,
                                    const hw::DianaConfig& cfg,
                                    AccelTarget target,
                                    const TilerOptions& options);

Result<AccelSchedule> BuildScheduleWithSolution(const AccelLayerSpec& spec,
                                                const hw::DianaConfig& cfg,
                                                AccelTarget target,
                                                const TilerOptions& options,
                                                const TileSolution& solution);

// The perf counters of a kernel running `schedule` (CompiledKernel::perf).
hw::KernelPerf SchedulePerf(const AccelSchedule& schedule,
                            const std::string& name);

}  // namespace htvm::dory
