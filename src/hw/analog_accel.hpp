// Cycle and storage model of DIANA's analog in-memory-compute accelerator.
//
// The 1152x512 SRAM macro spatially unrolls the whole input patch
// (C * kh * kw) over rows and the output channels (K) over columns; one
// array activation produces all K partial outputs for one output pixel.
// Consequences the model captures (Sec. IV-B/C of the paper):
//   - per-layer *weight loading* into the macro dominates latency for
//     small layers ("the overhead of filling the analog accelerator weight
//     memory for each layer"),
//   - layers exceeding the macro tile over rows/columns and pay multiple
//     loads,
//   - inputs are consumed at 7-bit precision (functional clamp),
//   - ternary weights are stored padded to the macro's row-group
//     granularity, which can *grow* the binary despite 2-bit cells.
#pragma once

#include "hw/config.hpp"

namespace htvm::hw {

struct AnalogLayerGeom {
  i64 k = 1;   // output channels
  i64 c = 1;   // input channels
  i64 kh = 1;
  i64 kw = 1;
  i64 oy = 1;  // output rows
  i64 ox = 1;  // output cols
};

// Rows of the macro one input patch occupies.
inline i64 AnalogRowsNeeded(const AnalogLayerGeom& g) {
  return g.c * g.kh * g.kw;
}

// Number of (row-tile, col-tile) macro configurations needed.
i64 AnalogMacroTiles(const AnalogConfig& cfg, const AnalogLayerGeom& g);

// Cycles to program the macro with the layer's weights (all macro tiles).
i64 AnalogWeightLoadCycles(const AnalogConfig& cfg, const AnalogLayerGeom& g);

// Cycles for the analog compute itself: one pixel per `cycles_per_pixel`
// per macro tile.
i64 AnalogComputeCycles(const AnalogConfig& cfg, const AnalogLayerGeom& g);

// Output-stage cycles (requant / residual add / pooling in the digital
// periphery of the macro).
i64 AnalogPostCycles(i64 out_elems);

// Deployed storage for the layer's ternary weights: 2 bits per cell, rows
// padded to the macro's row-group granularity (zero-fill in L2 — the
// binary-size effect called out for ResNet/DS-CNN in Sec. IV-C).
i64 AnalogWeightStorageBytes(const AnalogLayerGeom& g);

// Row-group granularity of macro programming (rows are written in groups;
// partial groups are zero-padded in L2).
inline constexpr i64 kAnalogRowGroup = 64;

}  // namespace htvm::hw
