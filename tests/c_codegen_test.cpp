// C code emission tests: structural checks on generated kernels; proofs
// that emitted CPU code compiles with the host C compiler and computes
// bit-exactly what the reference interpreter computes -- whole CPU-only
// deployments, and every CPU kernel of every registry cell; and that every
// emitted accelerator kernel makes the DMA and driver calls its schedule's
// steps imply.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>

#include "compiler/c_runtime_header.hpp"
#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "dory/c_codegen.hpp"
#include "dory/layer_spec.hpp"
#include "emit_harness.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/registry.hpp"
#include "nn/interpreter.hpp"
#include "support/string_utils.hpp"

namespace htvm {
namespace {

using compiler::CompileOptions;
using compiler::EmitArtifactC;
using compiler::HtvmCompiler;

compiler::Artifact MustCompile(const Graph& g, const CompileOptions& opt) {
  auto art = HtvmCompiler{opt}.Compile(g);
  HTVM_CHECK_MSG(art.ok(), "compile failed");
  return std::move(art.value());
}

TEST(AccelCodegen, ConvKernelStructure) {
  models::ConvLayerParams p;
  p.c = 32;
  p.k = 32;
  p.iy = p.ix = 32;
  CompileOptions opt = CompileOptions::DigitalOnly();
  opt.tiler.l1_budget_bytes = 16 * 1024;  // force tiling
  const auto art = MustCompile(models::MakeConvLayerGraph(p), opt);
  auto emitted = EmitArtifactC(art, "convnet");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string& c = emitted->files.at("convnet.c");
  // Tile loop nest, DMA programming, driver call, weight offset table.
  EXPECT_NE(c.find("for (int kt = 0; kt < NK; ++kt)"), std::string::npos);
  EXPECT_NE(c.find("htvm_dma_2d"), std::string::npos);
  EXPECT_NE(c.find("diana_digital_conv2d"), std::string::npos);
  EXPECT_NE(c.find("w_off"), std::string::npos);
  EXPECT_NE(c.find("convnet_run"), std::string::npos);
  EXPECT_NE(c.find("l2_arena"), std::string::npos);
}

TEST(AccelCodegen, AnalogKernelLoadsMacroOnce) {
  models::ConvLayerParams p;
  p.weight_dtype = DType::kTernary;
  const auto art =
      MustCompile(models::MakeConvLayerGraph(p), CompileOptions::AnalogOnly());
  auto emitted = EmitArtifactC(art, "ana");
  ASSERT_TRUE(emitted.ok());
  const std::string& c = emitted->files.at("ana.c");
  EXPECT_NE(c.find("diana_analog_load_weights"), std::string::npos);
  EXPECT_NE(c.find("diana_analog_conv2d"), std::string::npos);
  // Packed ternary weights emitted as bytes.
  EXPECT_NE(c.find("static const uint8_t"), std::string::npos);
}

TEST(AccelCodegen, TileMajorWeightsIsAPermutation) {
  models::ConvLayerParams p;
  p.c = 24;
  p.k = 40;
  p.iy = p.ix = 16;
  const hw::DianaConfig cfg;
  dory::TilerOptions o;
  o.l1_budget_bytes = 4 * 1024;
  auto sched = dory::BuildSchedule(models::MakeConvSpec(p), cfg,
                                   dory::AccelTarget::kDigital, o);
  ASSERT_TRUE(sched.ok());
  Rng rng(3);
  Tensor w = Tensor::Random(Shape{40, 24, 3, 3}, DType::kInt8, rng);
  Tensor tiled = dory::TileMajorWeights(*sched, w);
  ASSERT_EQ(tiled.NumElements(), w.NumElements());
  std::vector<i8> a(w.data<i8>().begin(), w.data<i8>().end());
  std::vector<i8> b(tiled.data<i8>().begin(), tiled.data<i8>().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // Offsets cover the whole tensor.
  const auto offs = dory::TileMajorWeightOffsets(*sched);
  ASSERT_FALSE(offs.empty());
  EXPECT_EQ(offs.front(), 0);
  for (size_t i = 1; i < offs.size(); ++i) EXPECT_GT(offs[i], offs[i - 1]);
  EXPECT_LT(offs.back(), w.NumElements());
}

TEST(Codegen, EveryMlperfConfigEmits) {
  for (const auto& model : models::MlperfTinySuite()) {
    struct Cfg {
      models::PrecisionPolicy policy;
      CompileOptions opt;
    };
    const Cfg cfgs[] = {
        {models::PrecisionPolicy::kInt8, CompileOptions::PlainTvm()},
        {models::PrecisionPolicy::kInt8, CompileOptions::DigitalOnly()},
        {models::PrecisionPolicy::kTernary, CompileOptions::AnalogOnly()},
        {models::PrecisionPolicy::kMixed, CompileOptions{}},
    };
    for (const auto& cfg : cfgs) {
      const auto art = MustCompile(model.build(cfg.policy), cfg.opt);
      auto emitted = EmitArtifactC(art, "net");
      EXPECT_TRUE(emitted.ok())
          << model.name << ": " << emitted.status().ToString();
      if (emitted.ok()) {
        EXPECT_EQ(emitted->files.count("net.c"), 1u);
        EXPECT_EQ(emitted->files.count("htvm_runtime.h"), 1u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Host-execution tests: emitted CPU code is real C computing real int8
// arithmetic -- compile it with the host compiler, run it, compare with the
// reference interpreter bit-for-bit.
// ---------------------------------------------------------------------------

// Compiles `net` for the CPU only, emits it as C, and runs the emitted
// network against the reference interpreter on seeded inputs.
void ExpectEmittedCpuMatchesInterpreter(const Graph& net,
                                        const std::string& name) {
  SCOPED_TRACE(name);
  const auto art = MustCompile(net, CompileOptions::PlainTvm());
  auto emitted = EmitArtifactC(art, name);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  Rng rng(17);
  std::vector<Tensor> inputs;
  for (NodeId in : net.inputs()) {
    inputs.push_back(
        Tensor::Random(net.node(in).type.shape, DType::kInt8, rng));
  }
  auto ref = nn::RunGraph(net, inputs);
  ASSERT_TRUE(ref.ok());
  emit_harness::ExpectEmittedRunMatches(*emitted, name, inputs,
                                        ref.value()[0]);
}

TEST(Codegen, EmittedCpuDeploymentMatchesInterpreter) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";

  // Small all-CPU deployment (plain TVM baseline).
  GraphBuilder b(11);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  ConvSpec c1;
  c1.out_channels = 8;
  c1 = WithSamePadding(c1, 8, 8);
  NodeId y = b.ConvBlock(x, c1, "c1");
  ConvSpec dwspec;
  dwspec.depthwise = true;
  dwspec = WithSamePadding(dwspec, 8, 8);
  y = b.ConvBlock(y, dwspec, "dw");
  y = b.GlobalAvgPool(y);
  y = b.Flatten(y);
  y = b.DenseBlock(y, 6, /*relu=*/false, 6, DType::kInt8, "fc");
  y = b.Softmax(y);
  ExpectEmittedCpuMatchesInterpreter(b.Finish(y), "testnet");

  // Accumulator + bias leaves int32: the interpreter wraps the bias add
  // and rounds the shift without overflow, and so must the emitted C.
  models::ConvLayerParams p;
  p.c = p.k = 8;
  p.iy = p.ix = 8;
  p.shift = 20;
  Graph wrap = models::MakeConvLayerGraph(p);
  for (const Node& n : wrap.nodes()) {
    if (!n.IsOp("nn.bias_add")) continue;
    for (i32& v : wrap.mutable_node(n.inputs[1]).value.data<i32>()) {
      v = INT32_MAX - 100;
    }
  }
  ExpectEmittedCpuMatchesInterpreter(wrap, "wrapnet");

  // A softmax row wider than the 1024 entries the emitted helper once kept
  // on its stack.
  GraphBuilder wide(3);
  const NodeId logits = wide.Input("x", Shape{1, 2048});
  ExpectEmittedCpuMatchesInterpreter(wide.Finish(wide.Softmax(logits)),
                                     "widesoftmax");

  // A pad that no conv absorbs (its consumer is a pool) is a kernel of
  // its own.
  GraphBuilder padded(5);
  const NodeId px = padded.Input("x", Shape{1, 2, 4, 4});
  const NodeId pad = padded.graph().AddOp(
      "nn.pad", {px}, AttrMap{{"pad_width", std::vector<i64>{1, 1, 1, 1}}});
  ExpectEmittedCpuMatchesInterpreter(padded.Finish(padded.MaxPool(pad, 2, 2)),
                                     "padpool");

  // Batch 2: pools walk every image's channels, and the dense chain (no
  // accelerator layer shape, which is batch 1) still fuses.
  GraphBuilder batch2(6);
  const NodeId bx = batch2.Input("x", Shape{2, 3, 7, 5});
  const NodeId avg = batch2.graph().AddOp(
      "nn.avg_pool2d", {bx},
      AttrMap{{"pool_size", std::vector<i64>{3, 2}},
              {"strides", std::vector<i64>{2, 1}},
              {"padding", std::vector<i64>{1, 0, 1, 1}}});
  const NodeId fc = batch2.DenseBlock(
      batch2.Flatten(batch2.GlobalAvgPool(avg)), 4, /*relu=*/true, 5);
  ExpectEmittedCpuMatchesInterpreter(batch2.Finish(fc), "batch2");

  // A per-channel requant chain on a grouped (not depthwise) conv with a
  // narrower saturating clip: tvm.conv2d fuses it, but it is none of the
  // accelerator layer shapes dory::AnalyzeCompositeBody reads.
  GraphBuilder grouped(9);
  Graph& gg = grouped.graph();
  const NodeId gx = grouped.Input("x", Shape{1, 4, 6, 6});
  Rng wrng(21);
  const NodeId gw = gg.AddConstant(
      Tensor::Random(Shape{8, 2, 3, 3}, DType::kInt8, wrng));
  const NodeId gconv =
      gg.AddOp("nn.conv2d", {gx, gw},
               AttrMap{{"groups", i64{2}},
                       {"padding", std::vector<i64>{1, 1, 1, 1}}});
  const NodeId gb = gg.AddConstant(
      Tensor::Random(Shape{8}, DType::kInt32, wrng));
  const NodeId gbias = gg.AddOp("nn.bias_add", {gconv, gb});
  Tensor shifts(Shape{8}, DType::kInt32);
  for (i64 k = 0; k < 8; ++k) shifts.SetFlat(k, k % 4 + 3);
  const NodeId gshift =
      gg.AddOp("right_shift", {gbias, gg.AddConstant(shifts)});
  const NodeId gclip = gg.AddOp(
      "clip", {gshift}, AttrMap{{"a_min", i64{-100}}, {"a_max", i64{100}}});
  const NodeId gcast =
      gg.AddOp("cast", {gclip}, AttrMap{{"dtype", std::string("int8")}});
  const Graph grouped_net = grouped.Finish(gcast);
  EXPECT_FALSE(dory::AnalyzeCompositeBody(grouped_net).ok());
  ExpectEmittedCpuMatchesInterpreter(grouped_net, "groupedpc");

  // An add whose int32 sum a separate kernel casts back to int8: one kernel
  // writes int32, the next reads it.
  GraphBuilder wide_add(4);
  Graph& wg = wide_add.graph();
  const NodeId wa = wide_add.Input("x", Shape{1, 2, 4, 4});
  const NodeId wb = wide_add.Input("y", Shape{1, 2, 4, 4});
  const NodeId sum = wg.AddOp("add", {wa, wb});
  ExpectEmittedCpuMatchesInterpreter(
      wide_add.Finish(wg.AddOp("cast", {sum},
                               AttrMap{{"dtype", std::string("int8")}})),
      "int32add");
}

TEST(Codegen, EmittedAccelDeploymentCompiles) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  const auto art = MustCompile(net, CompileOptions{});
  auto emitted = EmitArtifactC(art, "resnet");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string dir = ::testing::TempDir() + "/htvm_emit_resnet";
  std::system(("mkdir -p " + dir).c_str());
  ASSERT_TRUE(emitted->WriteTo(dir).ok());
  const std::string cmd = "cc -std=c11 -O0 -c -o " + dir + "/resnet.o " +
                          dir + "/resnet.c 2> " + dir + "/cc.log";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "emitted accelerated C failed to compile; see " << dir << "/cc.log";
}

// ---------------------------------------------------------------------------
// Per-kernel differential and schedule replay, over every registry cell
// (model x deploy config x schedule search), every accelerated config at an
// 8 kB L1 budget, and a hand-built tiled matmul. Each cell builds in one
// translation unit with -Wall -Wextra -Werror. Its CPU kernels run on
// seeded inputs against nn::RunGraph on their bodies; its accelerator
// kernels run against a recording htvm_runtime.h, and the DMA and driver
// calls they log must be the ones their AccelSchedule::steps imply.
// ---------------------------------------------------------------------------

struct Cell {
  std::string group;  // the summary line the cell counts toward
  std::string name;
  std::function<Graph()> build;
  CompileOptions options;
};

// A cell child's exit codes.
constexpr int kCellMatched = 0;
constexpr int kCellMismatched = 1;    // some kernel output or log differs
constexpr int kCellWarnings = 2;      // matched, but only without -Werror
constexpr int kCellNotBuilt = 3;      // compile, emit or cc failed
constexpr size_t kCellLanes = 4;      // children alive at once

// The emitted name of a kernel's C function.
std::string KernelFunction(const std::string& kernel_name) {
  std::string fn = kernel_name;
  for (char& ch : fn) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return fn;
}

// The recording runtime's DMA and driver bodies. While a kernel is being
// recorded (htvm_nregions >= 0) each call prints one line instead of moving
// data. A pointer into a registered L2 region prints as <region>+<byte
// offset>, with a trailing '!' when the access runs past the region; any
// other pointer prints as l1, a null one as 0.
constexpr const char* kRecordingCalls = R"(
#include <stdio.h>

typedef struct {
  const char* name;
  const void* base;
  size_t bytes;
} htvm_region_t;
static htvm_region_t htvm_regions[8];
static int htvm_nregions = -1;

static void htvm_where(const void* p, size_t extent) {
  if (p == NULL) {
    printf(" 0");
    return;
  }
  for (int i = 0; i < htvm_nregions; ++i) {
    const uintptr_t base = (uintptr_t)htvm_regions[i].base;
    if ((uintptr_t)p >= base && (uintptr_t)p < base + htvm_regions[i].bytes) {
      const size_t off = (size_t)((uintptr_t)p - base);
      printf(" %s+%zu%s", htvm_regions[i].name, off,
             off + extent > htvm_regions[i].bytes ? "!" : "");
      return;
    }
  }
  printf(" l1");
}

// A one-row transfer logs its strides as its row length, so a 1D copy and
// a one-row 2D copy log alike.
static inline void htvm_dma_2d(void* dst, const void* src, uint32_t rows,
                               uint32_t row_bytes, uint32_t dst_stride,
                               uint32_t src_stride) {
  if (htvm_nregions < 0) {
    for (uint32_t r = 0; r < rows; ++r) {
      memcpy((uint8_t*)dst + (size_t)r * dst_stride,
             (const uint8_t*)src + (size_t)r * src_stride, row_bytes);
    }
    return;
  }
  if (rows == 1) dst_stride = src_stride = row_bytes;
  printf("dma");
  htvm_where(dst, (size_t)(rows - 1) * dst_stride + row_bytes);
  htvm_where(src, (size_t)(rows - 1) * src_stride + row_bytes);
  printf(" %u %u %u %u\n", rows, row_bytes, dst_stride, src_stride);
}

static inline void htvm_dma_1d(void* dst, const void* src, uint32_t bytes) {
  htvm_dma_2d(dst, src, 1, bytes, bytes, bytes);
}

static void htvm_tile(const char* driver, const htvm_accel_tile_t* t) {
  printf("%s k%d c%d oy%d ox%d iy%d ix%d f%dx%d s%dx%d pad%d,%d first%d "
         "last%d shift%d relu%d",
         driver, t->k_t, t->c_t, t->oy_t, t->ox_t, t->iy_t, t->ix_t, t->kh,
         t->kw, t->sy, t->sx, t->pad_t, t->pad_l, t->first_c, t->last_c,
         (int)t->shift, t->relu);
}

static inline void diana_digital_conv2d(const int8_t* l1_in,
                                        const int8_t* l1_w,
                                        const int32_t* l1_bias,
                                        int8_t* l1_out, int32_t* l1_psum,
                                        const htvm_accel_tile_t* t) {
  htvm_tile("digital_conv2d", t);
  htvm_where(l1_in, 0); htvm_where(l1_w, 0);
  htvm_where(l1_bias, 4u * t->k_t);
  htvm_where(l1_out, 0); htvm_where(l1_psum, 0);
  printf("\n");
}

static inline void diana_digital_dwconv2d(const int8_t* l1_in,
                                          const int8_t* l1_w,
                                          const int32_t* l1_bias,
                                          int8_t* l1_out,
                                          const htvm_accel_tile_t* t) {
  htvm_tile("digital_dwconv2d", t);
  htvm_where(l1_in, 0); htvm_where(l1_w, 0);
  htvm_where(l1_bias, 4u * t->k_t);
  htvm_where(l1_out, 0);
  printf("\n");
}

static inline void diana_digital_dense(const int8_t* l1_in, const int8_t* l1_w,
                                       const int32_t* l1_bias, int8_t* l1_out,
                                       int32_t* l1_psum,
                                       const htvm_accel_tile_t* t) {
  htvm_tile("digital_dense", t);
  htvm_where(l1_in, 0); htvm_where(l1_w, 0);
  htvm_where(l1_bias, 4u * t->k_t);
  htvm_where(l1_out, 0); htvm_where(l1_psum, 0);
  printf("\n");
}

static inline void diana_digital_matmul(const int8_t* l1_in,
                                        const int8_t* l1_w,
                                        const int32_t* l1_bias,
                                        int8_t* l1_out, int32_t* l1_psum,
                                        const htvm_accel_tile_t* t) {
  htvm_tile("digital_matmul", t);
  htvm_where(l1_in, 0); htvm_where(l1_w, 0);
  htvm_where(l1_bias, 4u * t->k_t);
  htvm_where(l1_out, 0); htvm_where(l1_psum, 0);
  printf("\n");
}

static inline void diana_digital_add(const int8_t* l1_a, const int8_t* l1_b,
                                     int8_t* l1_out,
                                     const htvm_accel_tile_t* t) {
  htvm_tile("digital_add", t);
  htvm_where(l1_a, 0); htvm_where(l1_b, 0); htvm_where(l1_out, 0);
  printf("\n");
}

static inline void diana_analog_load_weights(const uint8_t* l2_packed_ternary,
                                             uint32_t rows, uint32_t cols) {
  printf("analog_load_weights");
  htvm_where(l2_packed_ternary, 1);
  printf(" %u %u\n", rows, cols);
}

static inline void diana_analog_conv2d(const int8_t* l1_in,
                                       const int32_t* l1_bias, int8_t* l1_out,
                                       const htvm_accel_tile_t* t) {
  htvm_tile("analog_conv2d", t);
  htvm_where(l1_in, 0); htvm_where(l1_bias, 4u * t->k_t);
  htvm_where(l1_out, 0);
  printf("\n");
}

)";

// htvm_runtime.h for the replay: CRuntimeHeader()'s tile type and CPU
// helpers around the recording DMA and driver bodies.
std::string RecordingRuntimeHeader() {
  const std::string real = compiler::CRuntimeHeader();
  const std::string type_end = "} htvm_accel_tile_t;\n";
  const size_t type = real.find("typedef struct {");
  const size_t type_stop = real.find(type_end);
  const size_t helpers = real.rfind("// ---", real.find("// CPU helper"));
  HTVM_CHECK(type != std::string::npos && type_stop != std::string::npos &&
             helpers != std::string::npos);
  return "#ifndef HTVM_RUNTIME_H_\n#define HTVM_RUNTIME_H_\n\n"
         "#include <stdint.h>\n#include <string.h>\n\n" +
         real.substr(type, type_stop + type_end.size() - type) +
         kRecordingCalls + real.substr(helpers);
}

// The log of the calls an accelerator kernel must make to walk its
// schedule. Per step: the input tile's DMA from (c0, iy0, ix0), one
// transfer per channel plane (per [rows, channels] tile for dense and
// matmul); the weight tile's from its TileMajorWeightOffsets entry; the
// driver call with the step's extents and clipped top/left padding; and,
// on last_c, the output tile's DMA to (k0, y0, x0). Depthwise and add
// outputs follow their input channels (c0).
std::string ScheduleLog(const dory::AccelSchedule& sched) {
  using dory::LayerKind;
  const dory::AccelLayerSpec& s = sched.spec;
  const dory::TileSolution& sol = sched.solution;
  const bool analog = sched.target == dory::AccelTarget::kAnalog;
  const bool add = s.kind == LayerKind::kAdd;
  const bool dw = s.kind == LayerKind::kDwConv2d;
  const bool planes = s.kind != LayerKind::kDense &&
                      s.kind != LayerKind::kMatmul;
  const char* driver = analog                          ? "analog_conv2d"
                       : add                           ? "digital_add"
                       : dw                            ? "digital_dwconv2d"
                       : s.kind == LayerKind::kDense   ? "digital_dense"
                       : s.kind == LayerKind::kMatmul  ? "digital_matmul"
                                                       : "digital_conv2d";
  const auto dma = [](const std::string& dst, const std::string& src,
                      i64 rows, i64 row_bytes, i64 dst_stride,
                      i64 src_stride) {
    if (rows == 1) dst_stride = src_stride = row_bytes;
    return StrFormat("dma %s %s %lld %lld %lld %lld\n", dst.c_str(),
                     src.c_str(), (long long)rows, (long long)row_bytes,
                     (long long)dst_stride, (long long)src_stride);
  };
  const std::vector<i64> w_off = dory::TileMajorWeightOffsets(sched);
  std::string log;
  if (analog) {
    log += StrFormat("analog_load_weights w+0 %lld %lld\n",
                     (long long)(s.c * s.kh * s.kw), (long long)s.k);
  }
  for (const dory::TileStep& t : sched.steps) {
    const i64 iy_first = t.y0 * s.sy - s.pad_t;
    const i64 ix_first = t.x0 * s.sx - s.pad_l;
    const i64 iy0 = std::max<i64>(iy_first, 0);
    const i64 ix0 = std::max<i64>(ix_first, 0);
    const i64 o0 = dw || add ? t.c0 : t.k0;
    if (planes) {
      for (i64 ch = 0; ch < t.c_t; ++ch) {
        for (int in = 0; in < (add ? 2 : 1); ++in) {
          log += dma("l1",
                     StrFormat("in%d+%lld", in,
                               (long long)(((t.c0 + ch) * s.iy + iy0) * s.ix +
                                           ix0)),
                     t.iy_t, t.ix_t, t.ix_t, s.ix);
        }
      }
    } else {
      log += dma("l1", StrFormat("in0+%lld", (long long)(iy0 * s.c + t.c0)),
                 t.iy_t, t.c_t, t.c_t, s.c);
    }
    if (!analog && !add) {
      const size_t tile =
          static_cast<size_t>((t.k0 / sol.k_t) * sol.n_c + t.c0 / sol.c_t);
      const i64 bytes = (dw ? 1 : t.k_t) * t.c_t * s.kh * s.kw;
      log += dma("l1", StrFormat("w+%lld", (long long)w_off.at(tile)), 1,
                 bytes, bytes, bytes);
    }
    log += StrFormat(
        "%s k%lld c%lld oy%lld ox%lld iy%lld ix%lld f%lldx%lld s%lldx%lld "
        "pad%lld,%lld first%d last%d shift%d relu%d",
        driver, (long long)t.k_t, (long long)t.c_t, (long long)t.oy_t,
        (long long)t.ox_t, (long long)t.iy_t, (long long)t.ix_t,
        (long long)s.kh, (long long)s.kw, (long long)s.sy, (long long)s.sx,
        (long long)(iy0 - iy_first), (long long)(ix0 - ix_first),
        t.first_c ? 1 : 0, t.last_c ? 1 : 0, (int)s.requant.shift,
        s.requant.relu ? 1 : 0);
    const std::string bias = StrFormat(" bias+%lld", (long long)(4 * o0));
    if (add) {
      log += " l1 l1 l1\n";
    } else if (analog) {
      log += " l1" + bias + " l1\n";
    } else if (dw) {
      log += " l1 l1" + bias + " l1\n";
    } else {
      log += " l1 l1" + bias + " l1" + (sol.psum ? " l1\n" : " 0\n");
    }
    if (!t.last_c) continue;
    if (planes) {
      for (i64 ch = 0; ch < t.k_t; ++ch) {
        log += dma(StrFormat("out+%lld",
                             (long long)(((o0 + ch) * s.oy + t.y0) * s.ox +
                                         t.x0)),
                   "l1", t.oy_t, t.ox_t, s.ox, t.ox_t);
      }
    } else {
      log += dma(StrFormat("out+%lld", (long long)(t.y0 * s.k + t.k0)), "l1",
                 t.oy_t, t.k_t, s.k, t.k_t);
    }
  }
  return log;
}

// The first line where two logs differ, for a mismatch report.
std::string FirstDifference(const std::string& got, const std::string& want) {
  std::istringstream g(got), w(want);
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) return "identical";
    if (!more_g || !more_w || gl != wl) {
      return StrFormat("line %d: want '%s' got '%s'", line,
                       more_w ? wl.c_str() : "<end>",
                       more_g ? gl.c_str() : "<end>");
    }
  }
}

// Runs one cell and writes a one-line report to `dir`/report.txt:
// "cpu <n> accel <n> tiled <n>", then any mismatched kernels.
int RunCell(const Cell& cell, const std::string& dir) {
  std::system(("mkdir -p " + dir).c_str());
  std::ofstream report(dir + "/report.txt");
  CompileOptions opt = cell.options;
  opt.compile_threads = 1;  // a forked child has no pool lanes
  opt.schedule_search.eval_lanes = 1;
  auto art = HtvmCompiler{opt}.Compile(cell.build());
  if (!art.ok()) {
    report << "compile: " << art.status().ToString();
    return kCellNotBuilt;
  }
  auto emitted = EmitArtifactC(*art, "net");
  if (!emitted.ok()) {
    report << "emit: " << emitted.status().ToString();
    return kCellNotBuilt;
  }

  // The emitted network plus a main() that runs each kernel once: a CPU
  // kernel on fresh seeded inputs, writing its output bytes to stdout; an
  // accelerator kernel on zeroed buffers registered as L2 regions, writing
  // its call log to stdout.
  const Graph& g = art->kernel_graph;
  std::string tu = "int main(void) {\n";
  u32 state = 1;
  // What each kernel must write: a CPU kernel its output bytes, an
  // accelerator kernel its log up to an "end <function>" line.
  struct Segment {
    std::string kernel, want, end;
  };
  std::vector<Segment> segments;
  i64 cpu = 0, accel = 0, tiled = 0;
  for (const compiler::CompiledKernel& kernel : art->kernels) {
    const Graph& body = *g.node(kernel.node).body;
    const std::string fn = KernelFunction(kernel.name);
    std::vector<Tensor> inputs;
    std::string call = fn + "(";
    tu += "  {\n";
    for (size_t i = 0; i < body.inputs().size(); ++i) {
      const TensorType& t = body.node(body.inputs()[i]).type;
      tu += StrFormat("    static int8_t in%zu[%lld];\n", i,
                      (long long)t.shape.NumElements());
      call += StrFormat("in%zu, ", i);
      if (kernel.schedule.has_value()) continue;
      inputs.emplace_back(t.shape, DType::kInt8);
      emit_harness::FillSeeded(&inputs.back(), &state);
      tu += StrFormat("    htvm_fill(in%zu, %lld);\n", i,
                      (long long)t.shape.NumElements());
    }
    const TensorType& out_type = body.node(body.outputs()[0]).type;
    tu += StrFormat("    static int8_t out[%lld];\n",
                    (long long)out_type.shape.NumElements());
    if (kernel.schedule.has_value()) {
      const auto [weight, bias] = dory::FindWeightBias(body);
      tu += "    const htvm_region_t r[] = {";
      for (size_t i = 0; i < body.inputs().size(); ++i) {
        tu += StrFormat("{\"in%zu\", in%zu, sizeof in%zu}, ", i, i, i);
      }
      tu += "{\"out\", out, sizeof out}";
      if (weight != nullptr) {
        tu += StrFormat(", {\"w\", %s_w, sizeof %s_w}", fn.c_str(),
                        fn.c_str());
      }
      if (bias != nullptr) {
        tu += StrFormat(", {\"bias\", %s_b, sizeof %s_b}", fn.c_str(),
                        fn.c_str());
      }
      tu += "};\n";
      tu += "    memcpy(htvm_regions, r, sizeof r);\n";
      tu += "    htvm_nregions = (int)(sizeof r / sizeof r[0]);\n";
      tu += "    " + call + "out);\n";
      tu += "    htvm_nregions = -1;\n";
      tu += "    printf(\"end " + fn + "\\n\");\n  }\n";
      segments.push_back({kernel.name,
                          ScheduleLog(*kernel.schedule),
                          "end " + fn + "\n"});
      ++accel;
      tiled += kernel.schedule->steps.size() > 1;
      continue;
    }
    auto ref = nn::RunGraph(body, inputs);
    if (!ref.ok()) {
      report << kernel.name << ": " << ref.status().ToString();
      return kCellNotBuilt;
    }
    const Tensor& out = ref.value()[0];
    tu += "    " + call + "out);\n";
    tu += "    fwrite(out, 1, sizeof out, stdout);\n  }\n";
    segments.push_back(
        {kernel.name,
         std::string(reinterpret_cast<const char*>(out.raw()),
                     static_cast<size_t>(out.NumElements())),
         ""});
    ++cpu;
  }
  tu += "  return 0;\n}\n";
  tu = emitted->files.at("net.c") + "\n#include <stdio.h>\n" +
       (cpu > 0 ? emit_harness::kCFill : "") + tu;

  const std::map<std::string, std::string> files = {
      {"htvm_runtime.h", RecordingRuntimeHeader()}, {"cell.c", tu}};
  int code = kCellMatched;
  auto got = emit_harness::BuildAndRun(dir, files, {"cell.c"},
                                       "-std=c11 -O1 -Wall -Wextra -Werror");
  if (!got.ok()) {
    // Still compare, so a warning does not hide a mismatch.
    std::system(("cp " + dir + "/cc.log " + dir + "/werror.log").c_str());
    code = kCellWarnings;
    got = emit_harness::BuildAndRun(dir, files, {"cell.c"}, "-std=c11 -O1");
  }
  if (!got.ok()) {
    report << got.status().ToString();
    return kCellNotBuilt;
  }
  report << "cpu " << cpu << " accel " << accel << " tiled " << tiled;
  std::string mismatched;
  size_t at = 0;
  for (const Segment& s : segments) {
    if (s.end.empty()) {
      if (got->compare(at, s.want.size(), s.want) != 0) {
        mismatched += " " + s.kernel;
      }
      at += s.want.size();
      continue;
    }
    const size_t stop = std::min(got->find(s.end, at), got->size());
    const std::string have = got->substr(at, stop - at);
    if (have != s.want) {
      mismatched += " " + s.kernel + " (" + FirstDifference(have, s.want) + ")";
    }
    at = stop + s.end.size();
  }
  if (mismatched.empty() && at == got->size()) return code;
  report << " mismatched:"
         << (mismatched.empty() ? " trailing output" : mismatched);
  return kCellMismatched;
}

// The cells of the sweep: every registry cell; each model on each
// accelerated config at an 8 kB L1 budget, where most layers tile; and a
// [64, 256] x [128, 256]^T matmul at 8 kB, since no registry matmul tiles.
std::vector<Cell> SweepCells() {
  std::vector<Cell> cells;
  for (const models::RegisteredModel& model : models::Registry()) {
    for (const models::DeployConfig& config : models::DeployConfigs()) {
      const auto build = [&model, &config] {
        return model.build(config.policy);
      };
      for (const auto search : {dory::ScheduleSearchKind::kHeuristic,
                                dory::ScheduleSearchKind::kGraphBeam}) {
        CompileOptions opt = config.options();
        opt.schedule_search.kind = search;
        cells.push_back({"registry",
                         StrFormat("%s.%s.%s", model.name, config.name,
                                   dory::ScheduleSearchKindName(search)),
                         build, opt});
      }
      if (std::string_view(config.name) == "tvm") continue;
      CompileOptions small = config.options();
      small.tiler.l1_budget_bytes = 8 * 1024;
      cells.push_back({"8 kB L1", StrFormat("%s.%s.l1_8k", model.name,
                                            config.name),
                       build, small});
    }
  }
  CompileOptions matmul = CompileOptions::DigitalOnly();
  matmul.tiler.l1_budget_bytes = 8 * 1024;
  cells.push_back({"tiled matmul", "matmul_64x256x128.l1_8k",
                   [] {
                     GraphBuilder b(13);
                     const NodeId x = b.Input("x", Shape{64, 256});
                     return b.Finish(b.MatmulBlock(x, 128));
                   },
                   matmul});
  return cells;
}

TEST(Codegen, EveryCpuKernelOfEveryRegistryCellMatchesInterpreter) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
  const std::vector<Cell> cells = SweepCells();
  const std::string root = ::testing::TempDir() + "/htvm_kernels";
  std::map<pid_t, size_t> alive;
  std::vector<int> codes(cells.size(), -1);
  const auto reap = [&] {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    ASSERT_GT(pid, 0);
    codes[alive.at(pid)] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    alive.erase(pid);
  };
  for (size_t i = 0; i < cells.size(); ++i) {
    if (alive.size() == kCellLanes) reap();
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) _exit(RunCell(cells[i], root + "/" + cells[i].name));
    alive[pid] = i;
  }
  while (!alive.empty()) reap();

  struct Totals {
    i64 cells = 0, cpu = 0, accel = 0, tiled = 0;
  };
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string dir = root + "/" + cells[i].name;
    std::ifstream in(dir + "/report.txt");
    std::string report((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    Totals& t = totals[cells[i].group];
    ++t.cells;
    long long cpu = 0, accel = 0, tiled = 0;
    if (std::sscanf(report.c_str(), "cpu %lld accel %lld tiled %lld", &cpu,
                    &accel, &tiled) == 3) {
      t.cpu += cpu;
      t.accel += accel;
      t.tiled += tiled;
    }
    EXPECT_EQ(codes[i], kCellMatched)
        << cells[i].name << ": " << report
        << (codes[i] == kCellWarnings ? " (warnings: " + dir + "/werror.log)"
                                      : "");
    if (codes[i] == kCellMatched) std::filesystem::remove_all(dir);
  }
  for (const auto& [group, t] : totals) {
    std::printf(
        "%s: %lld cells, %lld CPU kernels compared, %lld accelerator "
        "kernels replayed (%lld tiled)\n",
        group.c_str(), (long long)t.cells, (long long)t.cpu,
        (long long)t.accel, (long long)t.tiled);
  }
  EXPECT_GT(totals["registry"].cpu, 0);
  EXPECT_GT(totals["registry"].accel, 0);
  EXPECT_GT(totals["8 kB L1"].tiled, 0);
  EXPECT_EQ(totals["tiled matmul"].accel, 1);
  EXPECT_EQ(totals["tiled matmul"].tiled, 1);
}

}  // namespace
}  // namespace htvm
