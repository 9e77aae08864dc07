#include "hw/analog_accel.hpp"

#include "support/math_utils.hpp"

namespace htvm::hw {

i64 AnalogMacroTiles(const AnalogConfig& cfg, const AnalogLayerGeom& g) {
  return CeilDiv(AnalogRowsNeeded(g), cfg.array_rows) *
         CeilDiv(g.k, cfg.array_cols);
}

i64 AnalogWeightLoadCycles(const AnalogConfig& cfg,
                           const AnalogLayerGeom& g) {
  // Every row tile is written once per column tile. Rows are programmed in
  // full row-groups, so the total written row count aligns up to the group
  // size (the macro height, 1152, is itself a multiple of the group).
  static_assert(1152 % kAnalogRowGroup == 0);
  const i64 rows = AlignUp(AnalogRowsNeeded(g), kAnalogRowGroup);
  const i64 col_tiles = CeilDiv(g.k, cfg.array_cols);
  return col_tiles * rows * cfg.row_write_cycles;
}

i64 AnalogComputeCycles(const AnalogConfig& cfg, const AnalogLayerGeom& g) {
  const i64 row_tiles = CeilDiv(AnalogRowsNeeded(g), cfg.array_rows);
  const i64 col_tiles = CeilDiv(g.k, cfg.array_cols);
  return g.oy * g.ox * cfg.cycles_per_pixel * row_tiles * col_tiles;
}

i64 AnalogPostCycles(i64 out_elems) {
  return CeilDiv(out_elems, 16);
}

i64 AnalogWeightStorageBytes(const AnalogLayerGeom& g) {
  const i64 rows_padded = AlignUp(AnalogRowsNeeded(g), kAnalogRowGroup);
  const i64 cols = g.k;  // only used columns are stored
  const i64 bits = rows_padded * cols * 2;
  return CeilDiv(bits, 8);
}

}  // namespace htvm::hw
