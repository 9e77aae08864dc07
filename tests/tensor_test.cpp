#include <gtest/gtest.h>

#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace htvm {
namespace {

TEST(Shape, NumElementsAndEquality) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s, (Shape{2, 3, 4}));
  EXPECT_NE(s, (Shape{2, 3}));
  EXPECT_EQ(Shape{}.NumElements(), 1);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(Shape, RowMajorStrides) {
  EXPECT_EQ(RowMajorStrides(Shape{2, 3, 4}), (std::vector<i64>{12, 4, 1}));
  EXPECT_EQ(RowMajorStrides(Shape{5}), (std::vector<i64>{1}));
}

TEST(DType, SizesAndNames) {
  EXPECT_EQ(DTypeSizeBytes(DType::kInt8), 1);
  EXPECT_EQ(DTypeSizeBytes(DType::kInt32), 4);
  EXPECT_EQ(DTypeSizeBytes(DType::kTernary), 1);  // unpacked in simulation
  EXPECT_EQ(DTypeStorageBits(DType::kTernary), 2);
  EXPECT_STREQ(DTypeName(DType::kTernary), "ternary");
  DType t;
  EXPECT_TRUE(ParseDType("int32", &t));
  EXPECT_EQ(t, DType::kInt32);
  EXPECT_FALSE(ParseDType("int7", &t));
}

TEST(Tensor, ZerosAndFlatAccess) {
  Tensor t = Tensor::Zeros(Shape{2, 2}, DType::kInt32);
  EXPECT_EQ(t.NumElements(), 4);
  EXPECT_EQ(t.SizeBytes(), 16);
  EXPECT_EQ(t.GetFlat(3), 0);
  t.SetFlat(3, -77);
  EXPECT_EQ(t.GetFlat(3), -77);
}

TEST(Tensor, At4Indexing) {
  Tensor t = Tensor::Zeros(Shape{1, 2, 3, 4}, DType::kInt8);
  t.Set4(0, 1, 2, 3, 42);
  EXPECT_EQ(t.At4(0, 1, 2, 3), 42);
  EXPECT_EQ(t.GetFlat(1 * 12 + 2 * 4 + 3), 42);
}

TEST(Tensor, RandomDeterministicPerSeed) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::Random(Shape{10, 10}, DType::kInt8, r1);
  Tensor b = Tensor::Random(Shape{10, 10}, DType::kInt8, r2);
  EXPECT_TRUE(a.SameAs(b));
}

TEST(Tensor, RandomTernaryHoldsOnlyTernaryValues) {
  Rng rng(11);
  Tensor t = Tensor::Random(Shape{64, 64}, DType::kTernary, rng);
  for (i64 i = 0; i < t.NumElements(); ++i) {
    const i64 v = t.GetFlat(i);
    EXPECT_TRUE(v == -1 || v == 0 || v == 1);
  }
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t = Tensor::FromInt8(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  for (i64 i = 0; i < 6; ++i) EXPECT_EQ(r.GetFlat(i), t.GetFlat(i));
}

TEST(Quantize, RequantizeValueMatchesShiftClipCast) {
  RequantParams p{.shift = 4, .relu = false, .channel_shifts = {}};
  EXPECT_EQ(RequantizeValue(160, p), 10);
  EXPECT_EQ(RequantizeValue(100000, p), 127);   // saturates high
  EXPECT_EQ(RequantizeValue(-100000, p), -128); // saturates low
  p.relu = true;
  EXPECT_EQ(RequantizeValue(-160, p), 0);
}

TEST(Quantize, RequantizeTensor) {
  Tensor acc = Tensor::FromInt32(Shape{4}, {256, -256, 100000, 8});
  Tensor out = RequantizeTensor(
      acc, {.shift = 4, .relu = false, .channel_shifts = {}});
  EXPECT_EQ(out.dtype(), DType::kInt8);
  EXPECT_EQ(out.GetFlat(0), 16);
  EXPECT_EQ(out.GetFlat(1), -16);
  EXPECT_EQ(out.GetFlat(2), 127);
  EXPECT_EQ(out.GetFlat(3), 1);  // 0.5 rounds away from zero
}

TEST(Quantize, ClampTo7Bit) {
  Tensor t = Tensor::FromInt8(Shape{4}, {-128, -64, 63, 127});
  Tensor c = ClampTo7Bit(t);
  EXPECT_EQ(c.GetFlat(0), -64);
  EXPECT_EQ(c.GetFlat(1), -64);
  EXPECT_EQ(c.GetFlat(2), 63);
  EXPECT_EQ(c.GetFlat(3), 63);
}

TEST(Quantize, TernaryPackUnpackRoundTrip) {
  Rng rng(3);
  Tensor t = Tensor::Random(Shape{7, 9}, DType::kTernary, rng);  // 63 elems
  const auto packed = PackTernary(t);
  EXPECT_EQ(packed.size(), 16u);  // ceil(63/4)
  Tensor back = UnpackTernary(packed, t.shape());
  EXPECT_TRUE(back.SameAs(t));
}

TEST(Quantize, TernaryPackDensity) {
  Rng rng(4);
  Tensor t = Tensor::Random(Shape{1024}, DType::kTernary, rng);
  EXPECT_EQ(PackTernary(t).size(), 256u);  // 2 bits/elem exactly
}

}  // namespace
}  // namespace htvm
