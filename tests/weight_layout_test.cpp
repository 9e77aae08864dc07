#include <gtest/gtest.h>

#include "dory/weight_layout.hpp"
#include "models/layer_zoo.hpp"

namespace htvm::dory {
namespace {

TEST(DeployedBytes, DigitalIsInt8PlusBias) {
  models::ConvLayerParams p;
  p.c = 16;
  p.k = 32;
  const auto spec = models::MakeConvSpec(p);
  EXPECT_EQ(DeployedWeightBytes(spec, AccelTarget::kDigital),
            32 * 16 * 9 + 32 * 4);
}

TEST(DeployedBytes, AnalogPacksTernaryWithRowPadding) {
  models::ConvLayerParams p;
  p.c = 16;
  p.k = 32;
  p.weight_dtype = DType::kTernary;
  const auto spec = models::MakeConvSpec(p);
  // rows = 16*9 = 144 -> padded 192; bytes = 192*32*2/8 + bias.
  EXPECT_EQ(DeployedWeightBytes(spec, AccelTarget::kAnalog),
            192 * 32 * 2 / 8 + 32 * 4);
}

TEST(DeployedBytes, TernaryBeatsInt8WhenRowsAligned) {
  const auto spec = models::MakeDenseSpec(640, 128, DType::kTernary);
  const i64 analog = DeployedWeightBytes(spec, AccelTarget::kAnalog);
  const auto spec8 = models::MakeDenseSpec(640, 128, DType::kInt8);
  const i64 digital = DeployedWeightBytes(spec8, AccelTarget::kDigital);
  EXPECT_LT(analog, digital);
}

}  // namespace
}  // namespace htvm::dory
