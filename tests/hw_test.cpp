#include <gtest/gtest.h>

#include "hw/analog_accel.hpp"
#include "hw/cpu.hpp"
#include "hw/digital_accel.hpp"
#include "hw/dma.hpp"
#include "hw/perf.hpp"
#include "ir/builder.hpp"

namespace htvm::hw {
namespace {

const DmaConfig kDma;          // defaults
const DigitalConfig kDigital;  // defaults
const AnalogConfig kAnalog;    // defaults

TEST(Dma, Cost1dScalesWithBytes) {
  const i64 small = DmaCost1d(kDma, 64);
  const i64 big = DmaCost1d(kDma, 6400);
  EXPECT_GT(big, small);
  const i64 transfer = 6400 / kDma.bytes_per_cycle;  // pure bandwidth term
  EXPECT_GE(big, transfer);
  EXPECT_LE(big, transfer + kDma.setup_cycles + kDma.row_setup_cycles);
  EXPECT_EQ(DmaCost1d(kDma, 0), 0);
}

TEST(Dma, StridedTransfersPayPerRow) {
  const i64 contiguous = DmaCost1d(kDma, 4096);
  const i64 strided = DmaCost2d(kDma, 256, 16);  // same bytes, 256 rows
  EXPECT_GT(strided, contiguous);
  EXPECT_GE(strided - contiguous, 255 * kDma.row_setup_cycles - kDma.row_setup_cycles);
}

TEST(Dma, ActTileFullTensorIsOneTransfer) {
  const i64 cost = ActTileDmaCost(kDma, 16, 32, 32, 16, 32, 32);
  EXPECT_EQ(cost, DmaCost1d(kDma, 16 * 32 * 32));
}

TEST(Dma, ActTileFullRowsCheaperThanPartialRows) {
  // Same tile volume; x-cut tiles fragment into per-row segments.
  const i64 full_rows = ActTileDmaCost(kDma, 16, 32, 32, 16, 16, 32);
  const i64 part_rows = ActTileDmaCost(kDma, 16, 32, 32, 16, 32, 16);
  EXPECT_LT(full_rows, part_rows);
}

TEST(Dma, ActTileWholePlanesContiguous) {
  // Slicing channels only keeps the transfer contiguous in C-y-x.
  const i64 planes = ActTileDmaCost(kDma, 16, 32, 32, 4, 32, 32);
  EXPECT_EQ(planes, DmaCost1d(kDma, 4 * 32 * 32));
}

TEST(DigitalAccel, ConvPeakIs256MacsPerCycle) {
  ConvTileGeom g;
  g.k = 16;
  g.c = 16;
  g.oy = 16;
  g.ox = 16;
  g.iy = 18;
  g.ix = 18;
  g.kh = g.kw = 3;
  const i64 cycles = DigitalConvComputeCycles(kDigital, g);
  const i64 macs = ConvTileMacs(g);
  EXPECT_DOUBLE_EQ(static_cast<double>(macs) / static_cast<double>(cycles),
                   256.0);
}

TEST(DigitalAccel, MisalignedChannelsWasteLanes) {
  ConvTileGeom aligned;
  aligned.k = 16;
  aligned.c = 16;
  aligned.oy = aligned.ox = 16;
  aligned.kh = aligned.kw = 3;
  ConvTileGeom misaligned = aligned;
  misaligned.c = 17;  // one channel over the PE grid
  const i64 a = DigitalConvComputeCycles(kDigital, aligned);
  const i64 m = DigitalConvComputeCycles(kDigital, misaligned);
  // 17 channels cost as much as 32.
  EXPECT_EQ(m, 2 * a);
}

TEST(DigitalAccel, MisalignedOutputWidthWastesColumns) {
  ConvTileGeom g;
  g.k = 16;
  g.c = 16;
  g.oy = 16;
  g.kh = g.kw = 1;
  g.ox = 16;
  const i64 c16 = DigitalConvComputeCycles(kDigital, g);
  g.ox = 17;
  const i64 c17 = DigitalConvComputeCycles(kDigital, g);
  EXPECT_EQ(c17, 2 * c16);
}

TEST(DigitalAccel, DensePeakIs256MacsPerCycle) {
  const i64 cycles = DigitalDenseComputeCycles(kDigital, 256, 64);
  EXPECT_EQ(cycles, 16 * 4);
  EXPECT_DOUBLE_EQ(256.0 * 64.0 / static_cast<double>(cycles), 256.0);
}

TEST(DigitalAccel, DwConvPeakIs3p75MacsPerCycle) {
  ConvTileGeom g;
  g.c = 64;
  g.oy = 16;
  g.ox = 16;  // aligned
  g.kh = g.kw = 3;
  const i64 cycles = DigitalDwConvComputeCycles(kDigital, g);
  const double rate =
      static_cast<double>(DwConvTileMacs(g)) / static_cast<double>(cycles);
  EXPECT_NEAR(rate, 3.75, 0.01);
  EXPECT_DOUBLE_EQ(DigitalDwPeakMacsPerCycle(kDigital), 3.75);
}

TEST(AnalogAccel, WeightLoadDominatesSmallLayers) {
  AnalogLayerGeom g;
  g.k = 16;
  g.c = 16;
  g.kh = g.kw = 3;  // 144 rows -> padded to 192
  g.oy = g.ox = 16;
  const i64 load = AnalogWeightLoadCycles(kAnalog, g);
  const i64 compute = AnalogComputeCycles(kAnalog, g);
  EXPECT_GT(load, compute);
  EXPECT_EQ(load, 192 * kAnalog.row_write_cycles);
}

TEST(AnalogAccel, ColumnTilingMultipliesLoad) {
  AnalogLayerGeom g;
  g.k = 1024;  // 2 column tiles of 512
  g.c = 64;
  g.kh = g.kw = 3;
  g.oy = g.ox = 8;
  EXPECT_EQ(AnalogMacroTiles(kAnalog, g), 2);
  AnalogLayerGeom half = g;
  half.k = 512;
  EXPECT_EQ(AnalogWeightLoadCycles(kAnalog, g),
            2 * AnalogWeightLoadCycles(kAnalog, half));
}

TEST(AnalogAccel, StoragePadsToRowGroups) {
  AnalogLayerGeom g;
  g.k = 16;
  g.c = 3;
  g.kh = g.kw = 3;  // 27 rows -> 64 padded
  g.oy = g.ox = 32;
  const i64 bytes = AnalogWeightStorageBytes(g);
  EXPECT_EQ(bytes, 64 * 16 * 2 / 8);
  // Packed ternary is smaller than int8 when rows align...
  AnalogLayerGeom aligned;
  aligned.k = 64;
  aligned.c = 64;
  aligned.kh = aligned.kw = 1;  // 64 rows exactly
  EXPECT_LT(AnalogWeightStorageBytes(aligned), 64 * 64);
  // ...but padding can overtake int8 for tiny-patch layers.
  AnalogLayerGeom tiny;
  tiny.k = 512;
  tiny.c = 2;
  tiny.kh = tiny.kw = 1;  // 2 rows -> 64 padded: 32x blowup
  EXPECT_GT(AnalogWeightStorageBytes(tiny), 512 * 2);
}

TEST(CpuModel, ConvWorkAndCycles) {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 16, 8, 8});
  ConvSpec spec;
  spec.out_channels = 32;
  spec = WithSamePadding(spec, 8, 8);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));
  const Node* conv = nullptr;
  for (const Node& n : g.nodes()) {
    if (n.IsOp("nn.conv2d")) conv = &n;
  }
  ASSERT_NE(conv, nullptr);
  const OpWork w = ComputeOpWork(g, *conv);
  EXPECT_EQ(w.macs, 32 * 16 * 8 * 8 * 9);
  EXPECT_FALSE(w.is_dwconv);
  CpuConfig cfg;
  const i64 cycles = CpuOpCycles(cfg, g, *conv);
  EXPECT_NEAR(static_cast<double>(cycles),
              static_cast<double>(w.macs) * cfg.conv_cycles_per_mac,
              1.0);
}

TEST(CpuModel, DepthwiseCostlierPerMac) {
  CpuConfig cfg;
  EXPECT_GT(cfg.dwconv_cycles_per_mac, cfg.conv_cycles_per_mac);
}

TEST(Config, CyclesToMs) {
  DianaConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.CyclesToMs(260000), 1.0);
  EXPECT_DOUBLE_EQ(cfg.CyclesToUs(260), 1.0);
}

TEST(Perf, ProfileAggregation) {
  RunProfile p;
  KernelPerf a;
  a.name = "k0";
  a.target = "digital";
  a.macs = 1000;
  a.peak_cycles = 10;
  a.full_cycles = 12;
  KernelPerf b;
  b.name = "k1";
  b.target = "cpu";
  b.macs = 500;
  b.peak_cycles = 100;
  b.full_cycles = 100;
  p.kernels = {a, b};
  EXPECT_EQ(p.TotalFullCycles(), 112);
  EXPECT_EQ(p.TotalPeakCycles(), 110);
  EXPECT_EQ(p.TotalMacs(), 1500);
  EXPECT_EQ(p.FullCyclesOn("cpu"), 100);
  EXPECT_EQ(p.KernelCountOn("digital"), 1);
  EXPECT_NE(p.ToTable().find("k0"), std::string::npos);
}

}  // namespace
}  // namespace htvm::hw
