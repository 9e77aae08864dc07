#include <gtest/gtest.h>

#include "compiler/pipeline.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "runtime/energy.hpp"

namespace htvm::runtime {
namespace {

using compiler::CompileOptions;
using compiler::HtvmCompiler;
using models::PrecisionPolicy;

compiler::Artifact MustCompile(const Graph& g, const CompileOptions& opt) {
  auto art = HtvmCompiler{opt}.Compile(g);
  HTVM_CHECK_MSG(art.ok(), "compile failed");
  return std::move(art.value());
}

TEST(Energy, BreakdownSumsToTotal) {
  Graph net = models::BuildResNet8(PrecisionPolicy::kMixed);
  const auto art = MustCompile(net, CompileOptions{});
  const EnergyReport r = EstimateEnergy(art);
  double per_kernel = 0.0;
  for (const auto& k : r.kernels) per_kernel += k.pj;
  EXPECT_NEAR(per_kernel, r.total_pj, 1.0);
  EXPECT_NEAR(r.cpu_pj + r.digital_pj + r.analog_pj + r.dma_pj + r.idle_pj,
              r.total_pj, 1.0);
  EXPECT_GT(r.TotalUj(), 0.0);
}

TEST(Energy, AcceleratedInferenceUsesLessEnergyThanCpu) {
  // The Sec. I claim: accelerators reduce energy by over an order of
  // magnitude vs the general-purpose core.
  Graph net = models::BuildResNet8(PrecisionPolicy::kInt8);
  const auto cpu = MustCompile(net, CompileOptions::PlainTvm());
  const auto dig = MustCompile(net, CompileOptions::DigitalOnly());
  const double cpu_uj = EstimateEnergy(cpu).TotalUj();
  const double dig_uj = EstimateEnergy(dig).TotalUj();
  EXPECT_GT(cpu_uj, 10.0 * dig_uj)
      << "cpu " << cpu_uj << " uJ vs digital " << dig_uj << " uJ";
}

TEST(Energy, AnalogMoreEfficientPerMacOnConvLayer) {
  models::ConvLayerParams p;
  p.c = p.k = 64;
  p.iy = p.ix = 16;
  Graph int8net = models::MakeConvLayerGraph(p);
  p.weight_dtype = DType::kTernary;
  Graph ternary = models::MakeConvLayerGraph(p);
  const auto dig = MustCompile(int8net, CompileOptions::DigitalOnly());
  const auto ana = MustCompile(ternary, CompileOptions::AnalogOnly());
  const i64 macs = dig.Profile().TotalMacs();
  const double dig_tw = EstimateEnergy(dig).TopsPerWatt(macs);
  const double ana_tw = EstimateEnergy(ana).TopsPerWatt(macs);
  EXPECT_GT(ana_tw, dig_tw);
  // Digital sits in the TOPS/W class DIANA reports.
  EXPECT_GT(dig_tw, 0.5);
  EXPECT_LT(dig_tw, 20.0);
}

TEST(Energy, ReportRenders) {
  Graph net = models::BuildDsCnn(PrecisionPolicy::kMixed);
  const auto art = MustCompile(net, CompileOptions{});
  const std::string text = EstimateEnergy(art).ToString();
  EXPECT_NE(text.find("energy"), std::string::npos);
  EXPECT_NE(text.find("uJ"), std::string::npos);
}

}  // namespace
}  // namespace htvm::runtime
