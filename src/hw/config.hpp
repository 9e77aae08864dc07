// DIANA SoC configuration (Sec. II-A / III-C and [Ueyoshi et al., ISSCC'22]).
//
// Architectural facts from the paper:
//   - RISC-V (RV32IMCFXpulpV2) host at 260 MHz
//   - digital accelerator: 16x16 PE SIMD array, 256 int8 MAC/cycle peak,
//     64 kB weight memory, requant/ReLU/pool at the output,
//     DWConv2D uses a single PE row at 3.75 MAC/cycle peak
//   - analog IMC accelerator: 1152x512 SRAM array, 7-bit inputs, ternary
//     weights, 144 kB weight memory; supports conv (+FC as 1x1 conv),
//     batch-norm, residual add, pooling, activation, requant
//   - shared 256 kB L1 activation memory, accessed through DMA
//   - 512 kB L2 main memory
//
// Cost *constants* (DMA setup, per-row IMC write, CPU cycles/MAC, call
// overheads) are not in the paper; they are calibrated so the end-to-end
// latency/size relationships of Table I hold (see DESIGN.md "Calibration
// targets"). Every constant is a named field so ablation benches can sweep
// them.
#pragma once

#include "support/common.hpp"

namespace htvm::hw {

struct DmaConfig {
  i64 setup_cycles = 40;       // host programs one DMA descriptor
  // Effective L2 <-> L1 bandwidth. Calibrated against the weight-DMA-bound
  // ToyAdmos digital deployment (Table I: 0.30 ms peak for ~264 kB of FC
  // weights plus compute).
  i64 bytes_per_cycle = 4;
  i64 row_setup_cycles = 12;   // extra per row of a strided (2D) transfer
};

struct DigitalConfig {
  i64 pe_rows = 16;            // output-channel unroll (K)
  i64 pe_cols = 16;            // output-x unroll (Conv2D) / K unroll (FC)
  i64 weight_mem_bytes = 64 * 1024;
  // DWConv2D uses one PE row: 15 MACs every 4 cycles = 3.75 MAC/cycle peak.
  i64 dw_mac_num = 15;
  i64 dw_mac_den = 4;
  i64 tile_setup_cycles = 150;  // accelerator CSR programming per tile
  i64 post_simd_lanes = 16;     // output requant/ReLU/pool throughput
  // Depthwise mode drives a single PE row and needs the host to repack the
  // input into the row-serial order the array expects — the source of the
  // "full kernel never more than 20.7% slower" DWConv overhead in Fig. 5.
  double dw_marshal_cycles_per_elem = 0.55;
};

struct AnalogConfig {
  i64 array_rows = 1152;       // spatially unrolls C * kh * kw
  i64 array_cols = 512;        // spatially unrolls K
  i64 weight_mem_bytes = 144 * 1024;
  // Reprogramming the macro for a layer costs a fixed calibration/setup
  // plus a per-row write. The split is what reconciles Table I: the fixed
  // part dominates the 10 small FC layers of ToyAdmos (analog 2.7x slower
  // than digital there), while the per-row part stays cheap enough that
  // deep middle conv layers run slightly faster on analog than digital —
  // the margin that lets the mixed configuration win on ResNet.
  i64 layer_setup_cycles = 5000;
  i64 row_write_cycles = 15;
  i64 cycles_per_pixel = 2;    // DAC->array->ADC pipeline per output pixel
  i64 tile_setup_cycles = 500; // macro reconfiguration per layer/tile
  i64 input_bits = 7;
};

// Cycles-per-MAC / per-element of the TVM-generated RISC-V kernels.
struct CpuConfig {
  double conv_cycles_per_mac = 2.8;
  double dwconv_cycles_per_mac = 8.0;   // poor data reuse on the host
  double dense_cycles_per_mac = 4.5;
  double elemwise_cycles_per_elem = 4.0;
  double pool_cycles_per_elem = 6.0;
  double softmax_cycles_per_elem = 30.0;
  double requant_cycles_per_elem = 2.0; // fused into the producing kernel
  i64 kernel_overhead_cycles = 1200;    // fused-kernel call + loop setup
  // Speedup of a hand-tuned SIMD kernel library (PULP-NN / CMSIS-NN class)
  // over TVM-generated loop nests, for the accumulating ops. The paper's
  // conclusion names this extension path: "HTVM can easily be expanded with
  // other BYOC codegens to deploy hand-tuned CPU kernels". Table II's
  // TVM -> TVM+CMSIS-NN column pair shows the 1.1-1.45x this buys.
  double tuned_library_speedup = 1.45;
};

struct DianaConfig {
  i64 l1_bytes = 256 * 1024;   // shared accelerator activation memory
  i64 l2_bytes = 512 * 1024;   // main memory (activations + spills)
  double freq_mhz = 260.0;
  // HTVM runtime dispatch per kernel call: graph-executor step, L2
  // allocate/deallocate of the output tensor, argument marshalling.
  i64 runtime_call_overhead = 1000;
  DmaConfig dma;
  DigitalConfig digital;
  AnalogConfig analog;
  CpuConfig cpu;

  static DianaConfig Default() { return DianaConfig{}; }

  double CyclesToMs(i64 cycles) const {
    return static_cast<double>(cycles) / (freq_mhz * 1e3);
  }
  double CyclesToUs(i64 cycles) const {
    return static_cast<double>(cycles) / freq_mhz;
  }
};

// The one field list of DianaConfig, in its canonical order. The HAB
// hw-config section and the artifact-cache options fingerprint both walk
// it, so a field added here reaches every encoding and key. `io` takes I64
// and F64 calls.
template <typename Io, RecordOf<DianaConfig> C>
void VisitFields(Io& io, C& c) {
  io.I64(c.l1_bytes);
  io.I64(c.l2_bytes);
  io.F64(c.freq_mhz);
  io.I64(c.runtime_call_overhead);
  io.I64(c.dma.setup_cycles);
  io.I64(c.dma.bytes_per_cycle);
  io.I64(c.dma.row_setup_cycles);
  io.I64(c.digital.pe_rows);
  io.I64(c.digital.pe_cols);
  io.I64(c.digital.weight_mem_bytes);
  io.I64(c.digital.dw_mac_num);
  io.I64(c.digital.dw_mac_den);
  io.I64(c.digital.tile_setup_cycles);
  io.I64(c.digital.post_simd_lanes);
  io.F64(c.digital.dw_marshal_cycles_per_elem);
  io.I64(c.analog.array_rows);
  io.I64(c.analog.array_cols);
  io.I64(c.analog.weight_mem_bytes);
  io.I64(c.analog.layer_setup_cycles);
  io.I64(c.analog.row_write_cycles);
  io.I64(c.analog.cycles_per_pixel);
  io.I64(c.analog.tile_setup_cycles);
  io.I64(c.analog.input_bits);
  io.F64(c.cpu.conv_cycles_per_mac);
  io.F64(c.cpu.dwconv_cycles_per_mac);
  io.F64(c.cpu.dense_cycles_per_mac);
  io.F64(c.cpu.elemwise_cycles_per_elem);
  io.F64(c.cpu.pool_cycles_per_elem);
  io.F64(c.cpu.softmax_cycles_per_elem);
  io.F64(c.cpu.requant_cycles_per_elem);
  io.I64(c.cpu.kernel_overhead_cycles);
  io.F64(c.cpu.tuned_library_speedup);
}

}  // namespace htvm::hw
