// ir::StructuralHash — the graph half of the artifact-cache key.
//
// The contract (ir/structural_hash.hpp): NodeId numbering, insertion order
// and unreachable nodes never change the digest; any change the compiler
// can observe — op names, attrs, constant bytes, tensor types, node names,
// DAG sharing — always does. cache::OptionsFingerprint carries the same
// contract for CompileOptions: instrumentation knobs are excluded,
// artifact-affecting fields are not.
#include <gtest/gtest.h>

#include "cache/cache_key.hpp"
#include "ir/builder.hpp"
#include "ir/structural_hash.hpp"
#include "models/mlperf_tiny.hpp"

namespace htvm {
namespace {

using ir::Hash128;
using ir::StructuralHash;

// A small two-branch graph:  y = relu(conv(x, w)) + bias-add branch.
Graph MakeGraph(u64 weight_seed = 1) {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
  Rng rng(weight_seed);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{8, 3, 3, 3}, DType::kInt8, rng), "w");
  NodeId conv = g.AddOp("nn.conv2d", {in, w},
                        AttrMap{{"strides", std::vector<i64>{1, 1}},
                                {"padding", std::vector<i64>{1, 1, 1, 1}},
                                {"groups", i64{1}}});
  NodeId relu = g.AddOp("nn.relu", {conv});
  g.SetOutputs({relu});
  return g;
}

TEST(StructuralHash, DeterministicAcrossCalls) {
  const Graph g = MakeGraph();
  const Hash128 a = StructuralHash(g);
  const Hash128 b = StructuralHash(g);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToHex().size(), 32u);
}

TEST(StructuralHash, InsertionOrderDoesNotMatter) {
  // Same graph, nodes created in a different order (constant before the
  // input, second branch first) — NodeIds differ, structure does not.
  Graph a;
  {
    NodeId in = a.AddInput("x", {Shape{1, 4}, DType::kInt8});
    Rng rng(3);
    NodeId w = a.AddConstant(Tensor::Random(Shape{4, 4}, DType::kInt8, rng),
                             "w");
    NodeId d = a.AddOp("nn.dense", {in, w});
    NodeId r = a.AddOp("nn.relu", {d});
    a.SetOutputs({r});
  }
  Graph b;
  {
    Rng rng(3);
    NodeId w = b.AddConstant(Tensor::Random(Shape{4, 4}, DType::kInt8, rng),
                             "w");
    NodeId in = b.AddInput("x", {Shape{1, 4}, DType::kInt8});
    NodeId d = b.AddOp("nn.dense", {in, w});
    NodeId r = b.AddOp("nn.relu", {d});
    b.SetOutputs({r});
  }
  EXPECT_EQ(StructuralHash(a), StructuralHash(b));
}

TEST(StructuralHash, UnreachableNodesDoNotMatter) {
  Graph a = MakeGraph();
  Graph b = MakeGraph();
  // Dangling constant + op feeding nothing: reachable set is unchanged.
  Rng rng(99);
  NodeId junk = b.AddConstant(
      Tensor::Random(Shape{2, 2}, DType::kInt8, rng), "junk");
  b.AddOp("nn.relu", {junk});
  EXPECT_EQ(StructuralHash(a), StructuralHash(b));
}

TEST(StructuralHash, AttrLiteralOrderDoesNotMatter) {
  Graph a;
  Graph b;
  for (Graph* g : {&a, &b}) {
    NodeId in = g->AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
    Rng rng(1);
    NodeId w = g->AddConstant(
        Tensor::Random(Shape{8, 3, 3, 3}, DType::kInt8, rng), "w");
    // Attr maps hash in sorted-key order, so the literal order below is
    // immaterial.
    AttrMap attrs =
        g == &a ? AttrMap{{"strides", std::vector<i64>{1, 1}},
                          {"padding", std::vector<i64>{1, 1, 1, 1}}}
                : AttrMap{{"padding", std::vector<i64>{1, 1, 1, 1}},
                          {"strides", std::vector<i64>{1, 1}}};
    NodeId conv = g->AddOp("nn.conv2d", {in, w}, attrs);
    g->SetOutputs({conv});
  }
  EXPECT_EQ(StructuralHash(a), StructuralHash(b));
}

TEST(StructuralHash, SemanticEditsChangeTheKey) {
  const Hash128 base = StructuralHash(MakeGraph());

  // Different constant bytes.
  EXPECT_NE(StructuralHash(MakeGraph(/*weight_seed=*/2)), base);

  // Different attr value.
  {
    Graph g;
    NodeId in = g.AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
    Rng rng(1);
    NodeId w = g.AddConstant(
        Tensor::Random(Shape{8, 3, 3, 3}, DType::kInt8, rng), "w");
    NodeId conv = g.AddOp("nn.conv2d", {in, w},
                          AttrMap{{"strides", std::vector<i64>{2, 2}},
                                  {"padding", std::vector<i64>{1, 1, 1, 1}},
                                  {"groups", i64{1}}});
    NodeId relu = g.AddOp("nn.relu", {conv});
    g.SetOutputs({relu});
    EXPECT_NE(StructuralHash(g), base);
  }

  // Different op.
  {
    Graph g = MakeGraph();
    Graph h;
    NodeId in = h.AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
    Rng rng(1);
    NodeId w = h.AddConstant(
        Tensor::Random(Shape{8, 3, 3, 3}, DType::kInt8, rng), "w");
    NodeId conv = h.AddOp("nn.conv2d", {in, w},
                          AttrMap{{"strides", std::vector<i64>{1, 1}},
                                  {"padding", std::vector<i64>{1, 1, 1, 1}},
                                  {"groups", i64{1}}});
    h.SetOutputs({conv});  // no relu
    EXPECT_NE(StructuralHash(h), StructuralHash(g));
  }

  // Different input name (names reach the emitted C symbols, so they are
  // part of the artifact and must be part of the key).
  {
    Graph g;
    NodeId in = g.AddInput("input_renamed", {Shape{1, 3, 8, 8}, DType::kInt8});
    Rng rng(1);
    NodeId w = g.AddConstant(
        Tensor::Random(Shape{8, 3, 3, 3}, DType::kInt8, rng), "w");
    NodeId conv = g.AddOp("nn.conv2d", {in, w},
                          AttrMap{{"strides", std::vector<i64>{1, 1}},
                                  {"padding", std::vector<i64>{1, 1, 1, 1}},
                                  {"groups", i64{1}}});
    NodeId relu = g.AddOp("nn.relu", {conv});
    g.SetOutputs({relu});
    EXPECT_NE(StructuralHash(g), base);
  }
}

TEST(StructuralHash, SharingDiffersFromDuplication) {
  // add(d, d) with one shared dense vs add(d1, d2) with two identical
  // dense nodes: same values, different DAG — the compiler can observe the
  // difference (one kernel vs two), so the hashes must differ.
  Graph shared;
  {
    NodeId in = shared.AddInput("x", {Shape{1, 4}, DType::kInt8});
    Rng rng(3);
    NodeId w = shared.AddConstant(
        Tensor::Random(Shape{4, 4}, DType::kInt8, rng), "w");
    NodeId d = shared.AddOp("nn.dense", {in, w});
    NodeId s = shared.AddOp("add", {d, d});
    shared.SetOutputs({s});
  }
  Graph duplicated;
  {
    NodeId in = duplicated.AddInput("x", {Shape{1, 4}, DType::kInt8});
    Rng rng(3);
    NodeId w = duplicated.AddConstant(
        Tensor::Random(Shape{4, 4}, DType::kInt8, rng), "w");
    NodeId d1 = duplicated.AddOp("nn.dense", {in, w});
    NodeId d2 = duplicated.AddOp("nn.dense", {in, w});
    NodeId s = duplicated.AddOp("add", {d1, d2});
    duplicated.SetOutputs({s});
  }
  EXPECT_NE(StructuralHash(shared), StructuralHash(duplicated));
}

TEST(StructuralHash, SuiteModelsAllDistinct) {
  std::vector<Hash128> hashes;
  for (const auto& m : models::MlperfTinySuite()) {
    hashes.push_back(
        StructuralHash(m.build(models::PrecisionPolicy::kMixed)));
  }
  for (size_t i = 0; i < hashes.size(); ++i) {
    for (size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;
    }
  }
  // And rebuilding the same model reproduces the same hash.
  EXPECT_EQ(
      StructuralHash(models::BuildResNet8(models::PrecisionPolicy::kMixed)),
      StructuralHash(models::BuildResNet8(models::PrecisionPolicy::kMixed)));
}

TEST(OptionsFingerprint, InstrumentationKnobsAreExcluded) {
  compiler::CompileOptions a;
  compiler::CompileOptions b;
  b.instrument.dump_ir_dir = "/tmp/somewhere";
  b.instrument.dump_ir_filter = "PartitionGraph";
  b.cache = reinterpret_cast<compiler::ArtifactCacheHook*>(0x1);
  EXPECT_EQ(cache::OptionsFingerprint(a), cache::OptionsFingerprint(b));
}

TEST(OptionsFingerprint, ArtifactAffectingFieldsAreIncluded) {
  const ir::Hash128 base =
      cache::OptionsFingerprint(compiler::CompileOptions{});
  EXPECT_NE(cache::OptionsFingerprint(compiler::CompileOptions::PlainTvm()),
            base);
  EXPECT_NE(
      cache::OptionsFingerprint(compiler::CompileOptions::DigitalOnly()),
      base);
  compiler::CompileOptions tiled;
  tiled.tiler.alpha = 2.0;
  EXPECT_NE(cache::OptionsFingerprint(tiled), base);
  compiler::CompileOptions searched;
  searched.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  EXPECT_NE(cache::OptionsFingerprint(searched), base);
}

TEST(CacheKey, TextFormIsStable) {
  const Graph g = MakeGraph();
  const compiler::CompileOptions opt;
  const cache::CacheKey k = cache::MakeCacheKey(g, opt);
  EXPECT_EQ(k.ToString().size(), 64u);
  EXPECT_EQ(k, cache::MakeCacheKey(g, opt));
  EXPECT_EQ(k.ToString(), cache::MakeCacheKey(g, opt).ToString());
}

}  // namespace
}  // namespace htvm
