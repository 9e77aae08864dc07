// Cross-SoC differential test battery for the parameterized SoC families
// (hw/soc.hpp).
//
// Three kinds of guarantees:
//   1. Registry sanity — the built-in family is registered, the cache
//      options fingerprints of its members are pairwise distinct (including
//      a same-geometry twin), duplicates and unknown names fail with typed
//      statuses.
//   2. Differential — the default "diana" SoC reproduces the pre-refactor
//      single-SoC artifacts byte-identically, pinned by
//      tests/golden/soc/diana_reference.txt (regenerate intentional changes
//      with `./soc_family_test --update-golden` and commit the diff). Every
//      registered SoC compiles the full MLPerf Tiny suite plus layer-zoo
//      graphs deterministically, and distinct SoCs produce distinct
//      artifacts and distinct cache keys for the same graph.
//   3. Monotonicity — shrinking L1 (diana -> diana-l1half) strictly
//      tightens every DORY tile bound: solutions respect the halved budget
//      and never beat the full-L1 objective.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "cache/cache_key.hpp"
#include "compiler/pipeline.hpp"
#include "dory/tiler.hpp"
#include "hw/soc.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "support/string_utils.hpp"
#include "vm/hab.hpp"

#ifndef HTVM_GOLDEN_DIR
#error "HTVM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace htvm {
namespace {

bool g_update_golden = false;

// The six built-in family members, in registry (sorted) order.
const char* kFamilies[] = {"diana",          "diana-l1half", "diana-l2x2",
                           "diana-noanalog", "diana-pe32",   "diana-scalar"};

compiler::CompileOptions ConfigOptions(const std::string& config) {
  if (config == "tvm") return compiler::CompileOptions::PlainTvm();
  if (config == "digital") return compiler::CompileOptions::DigitalOnly();
  if (config == "analog") return compiler::CompileOptions::AnalogOnly();
  return compiler::CompileOptions{};
}

models::PrecisionPolicy ConfigPolicy(const std::string& config) {
  if (config == "tvm" || config == "digital") {
    return models::PrecisionPolicy::kInt8;
  }
  if (config == "analog") return models::PrecisionPolicy::kTernary;
  return models::PrecisionPolicy::kMixed;
}

// Wall-clock-scrubbed artifact hash: equal iff the artifacts are
// semantically byte-identical (kernels, schedules, memory plan, hw config).
u64 DiffHash(const compiler::Artifact& a) {
  const std::string diff = vm::SerializeHabForDiff(a);
  return vm::HabChecksum(reinterpret_cast<const u8*>(diff.data()),
                         diff.size());
}

compiler::Artifact MustCompile(const Graph& g,
                               const compiler::CompileOptions& opt) {
  auto artifact = compiler::HtvmCompiler{opt}.Compile(g);
  HTVM_CHECK_MSG(artifact.ok(), "compile failed");
  return std::move(*artifact);
}

struct GoldenCase {
  std::string name;
  Graph graph;
  compiler::CompileOptions options;
};

// The exact case list the pre-refactor golden file was generated from:
// MLPerf Tiny x every deployment config, the Fig. 4 layer zoo, and two
// non-conv zoo graphs.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const auto& model : models::MlperfTinySuite()) {
    for (const std::string config : {"mixed", "digital", "analog", "tvm"}) {
      GoldenCase c;
      c.name = model.name + std::string("/") + config;
      c.graph = model.build(ConfigPolicy(config));
      c.options = ConfigOptions(config);
      cases.push_back(std::move(c));
    }
  }
  int i = 0;
  for (const auto& p : models::Fig4Layers()) {
    GoldenCase c;
    c.name = "fig4-layer" + std::to_string(i++) + "/mixed";
    c.graph = models::MakeConvLayerGraph(p);
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c;
    c.name = "zoo-dense/mixed";
    c.graph = models::MakeDenseLayerGraph(256, 64);
    cases.push_back(std::move(c));
  }
  {
    GoldenCase c;
    c.name = "zoo-add/mixed";
    c.graph = models::MakeAddLayerGraph(16, 16, 16);
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string GoldenLine(const std::string& name,
                       const compiler::Artifact& artifact) {
  return StrFormat(
      "%s hash=%016llx kernels=%zu full_cycles=%lld arena=%lld "
      "code=%lld weight=%lld",
      name.c_str(), static_cast<unsigned long long>(DiffHash(artifact)),
      artifact.kernels.size(),
      static_cast<long long>(artifact.TotalFullCycles()),
      static_cast<long long>(artifact.memory_plan.arena_bytes),
      static_cast<long long>(artifact.size.code_bytes),
      static_cast<long long>(artifact.size.weight_bytes));
}

// --- 1. registry sanity ----------------------------------------------------

TEST(SocRegistry, BuiltInFamilyIsRegistered) {
  const std::vector<std::string> names = hw::SocNames();
  for (const char* family : kFamilies) {
    auto desc = hw::FindSoc(family);
    ASSERT_TRUE(desc.ok()) << family;
    EXPECT_EQ(desc->name, family);
  }
  // Sorted, exactly the built-ins, and the same list under its older name.
  ASSERT_EQ(names.size(), std::size(kFamilies));
  for (size_t i = 1; i < names.size(); ++i) EXPECT_LT(names[i - 1], names[i]);
  EXPECT_EQ(hw::SocRegistry::Global().Names(), names);
}

TEST(SocRegistry, FingerprintsArePairwiseDistinct) {
  const auto fingerprint = [](const hw::SocDescription& soc) {
    compiler::CompileOptions options;
    options.soc = soc;
    return cache::OptionsFingerprint(options).ToHex();
  };
  std::map<std::string, std::string> seen;
  for (const char* family : kFamilies) {
    auto [it, inserted] = seen.emplace(fingerprint(*hw::FindSoc(family)),
                                       family);
    EXPECT_TRUE(inserted) << family << " collides with " << it->second;
  }
  // A twin with byte-identical geometry but a different name must still
  // fingerprint differently: identity is part of the key.
  hw::SocDescription twin = hw::SocDescription::Diana();
  twin.name = "diana-twin";
  EXPECT_NE(fingerprint(twin), fingerprint(hw::SocDescription::Diana()));
}

TEST(SocRegistry, KeysArePinned) {
  // The options fingerprint addresses persisted state (on-disk cache
  // entries), so its value must not drift when the code computing it is
  // restructured. A reordered, dropped or re-typed field changes it.
  struct Pin {
    const char* soc;
    const char* options;
  };
  const Pin pins[] = {
      {"diana", "bcdb0e634066556c3d518a2c25c44a65"},
      {"diana-l1half", "4895d53b1ad320d1630cf209f4597841"},
      {"diana-l2x2", "66b78c6aca7a276976d9d3056b71088f"},
      {"diana-noanalog", "b0f5d32255c0c9feb5410178b10e4d4e"},
      {"diana-pe32", "43c153159b6fc384d8a5af4dd91b24f8"},
      {"diana-scalar", "c028d0e25865b4fa1d05515ea71f430d"},
  };
  for (const Pin& pin : pins) {
    auto desc = hw::FindSoc(pin.soc);
    ASSERT_TRUE(desc.ok()) << pin.soc;
    compiler::CompileOptions options;
    options.soc = *desc;
    EXPECT_EQ(cache::OptionsFingerprint(options).ToHex(), pin.options)
        << pin.soc;
  }
}

// Every DianaConfig field, listed independently of hw::VisitFields so a
// field the shared walk misses fails the test below.
std::vector<std::variant<i64*, double*>> DianaConfigFields(
    hw::DianaConfig& c) {
  return {&c.l1_bytes,
          &c.l2_bytes,
          &c.freq_mhz,
          &c.runtime_call_overhead,
          &c.dma.setup_cycles,
          &c.dma.bytes_per_cycle,
          &c.dma.row_setup_cycles,
          &c.digital.pe_rows,
          &c.digital.pe_cols,
          &c.digital.weight_mem_bytes,
          &c.digital.dw_mac_num,
          &c.digital.dw_mac_den,
          &c.digital.tile_setup_cycles,
          &c.digital.post_simd_lanes,
          &c.digital.dw_marshal_cycles_per_elem,
          &c.analog.array_rows,
          &c.analog.array_cols,
          &c.analog.weight_mem_bytes,
          &c.analog.layer_setup_cycles,
          &c.analog.row_write_cycles,
          &c.analog.cycles_per_pixel,
          &c.analog.tile_setup_cycles,
          &c.analog.input_bits,
          &c.cpu.conv_cycles_per_mac,
          &c.cpu.dwconv_cycles_per_mac,
          &c.cpu.dense_cycles_per_mac,
          &c.cpu.elemwise_cycles_per_elem,
          &c.cpu.pool_cycles_per_elem,
          &c.cpu.softmax_cycles_per_elem,
          &c.cpu.requant_cycles_per_elem,
          &c.cpu.kernel_overhead_cycles,
          &c.cpu.tuned_library_speedup};
}

TEST(SocRegistry, EveryDianaConfigFieldReachesHabAndCacheKey) {
  hw::DianaConfig probe;
  ASSERT_EQ(DianaConfigFields(probe).size() * 8, sizeof(hw::DianaConfig))
      << "a DianaConfig field is missing from the list above";
  const hw::SocDescription base = hw::SocDescription::Diana();
  compiler::CompileOptions base_options;
  base_options.soc = base;
  const ir::Hash128 base_key = cache::OptionsFingerprint(base_options);
  const Graph net = models::MakeDenseLayerGraph(64, 16);
  for (size_t i = 0; i < DianaConfigFields(probe).size(); ++i) {
    hw::SocDescription soc = base;
    std::visit([](auto* field) { *field += 1; },
               DianaConfigFields(soc.config)[i]);
    compiler::CompileOptions options;
    options.soc = soc;
    EXPECT_FALSE(cache::OptionsFingerprint(options) == base_key)
        << "field " << i;

    // Compiled for the perturbed SoC: the loader rebuilds the schedules
    // from the HAB's own config, so a swapped-in config would not load.
    const std::string bytes = vm::SerializeHab(MustCompile(net, options));
    auto parsed = vm::ParseHab(
        {reinterpret_cast<const u8*>(bytes.data()), bytes.size()});
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const auto want = DianaConfigFields(soc.config);
    const auto got = DianaConfigFields(parsed->artifact.hw_config);
    for (size_t j = 0; j < want.size(); ++j) {
      std::visit(
          [&](auto* w) {
            EXPECT_EQ(*std::get<decltype(w)>(got[j]), *w)
                << "field " << j << " after perturbing field " << i;
          },
          want[j]);
    }
  }
}

TEST(SocRegistry, UnknownNameIsTypedAndListsFamilies) {
  auto missing = hw::FindSoc("diana-mythical");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The message enumerates what IS registered, so a CLI typo is fixable
  // from the error alone.
  EXPECT_NE(missing.status().ToString().find("diana-l1half"),
            std::string::npos);
}

// --- 2. differential battery -----------------------------------------------

TEST(SocFamily, DefaultDianaMatchesPreRefactorGolden) {
  const std::string path =
      std::string(HTVM_GOLDEN_DIR) + "/soc/diana_reference.txt";
  std::string report =
      "# Pre-refactor DIANA artifact reference: per case, the FNV-1a 64 hash\n"
      "# of vm::SerializeHabForDiff plus summary fields.\n"
      "# Regenerate with: soc_family_test --update-golden\n";
  std::vector<std::string> lines;
  for (const GoldenCase& c : GoldenCases()) {
    // Default options: CompileOptions::soc is SocDescription::Diana().
    const compiler::Artifact artifact = MustCompile(c.graph, c.options);
    EXPECT_EQ(artifact.soc_name, "diana") << c.name;
    lines.push_back(GoldenLine(c.name, artifact));
    report += lines.back() + "\n";
  }
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << report;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path
                         << " (run with --update-golden to generate)";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  ASSERT_EQ(lines.size(), golden.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i])
        << "default-SoC artifact drifted from the pre-refactor reference; "
           "the SocDescription refactor must be byte-neutral for diana";
  }
}

TEST(SocFamily, EverySocCompilesTheSuiteDeterministically) {
  // MLPerf Tiny (mixed) + layer zoo x every built-in SoC: compilation
  // succeeds, fits L2, and repeating the compile reproduces the identical
  // artifact. Also records per-SoC hashes for the distinctness check below.
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& model : models::MlperfTinySuite()) {
    graphs.emplace_back(model.name,
                        model.build(models::PrecisionPolicy::kMixed));
  }
  models::ConvLayerParams conv;
  conv.c = 32;
  conv.k = 32;
  conv.iy = conv.ix = 32;
  graphs.emplace_back("zoo-conv", models::MakeConvLayerGraph(conv));
  graphs.emplace_back("zoo-dense", models::MakeDenseLayerGraph(256, 64));
  graphs.emplace_back("zoo-add", models::MakeAddLayerGraph(16, 16, 16));

  for (const auto& [name, graph] : graphs) {
    std::map<u64, std::string> hash_to_soc;
    for (const char* family : kFamilies) {
      compiler::CompileOptions options;
      options.soc = *hw::FindSoc(family);
      const compiler::Artifact a = MustCompile(graph, options);
      const compiler::Artifact b = MustCompile(graph, options);
      EXPECT_EQ(a.soc_name, family);
      EXPECT_TRUE(a.memory_plan.fits) << name << " on " << family;
      EXPECT_EQ(DiffHash(a), DiffHash(b))
          << name << " on " << family << " is nondeterministic";
      hash_to_soc.emplace(DiffHash(a), family);
    }
    // Every SoC's artifact differs (the hw config is part of the artifact,
    // and diana-noanalog additionally changes dispatch).
    EXPECT_EQ(hash_to_soc.size(), 6u)
        << name << ": two SoCs produced byte-identical artifacts";
  }
}

TEST(SocFamily, CacheKeysNeverCollideAcrossSocs) {
  // Regression for the cache-poisoning bug: identical graph + identical
  // options except the SoC must produce distinct cache keys — including a
  // twin whose geometry equals diana's exactly (only the name differs).
  const Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  std::map<std::string, std::string> key_to_soc;
  for (const char* family : kFamilies) {
    compiler::CompileOptions options;
    options.soc = *hw::FindSoc(family);
    const auto key = cache::MakeCacheKey(g, options).ToString();
    auto [it, inserted] = key_to_soc.emplace(key, family);
    EXPECT_TRUE(inserted) << family << " shares a cache key with "
                          << it->second;
  }
  compiler::CompileOptions twin_options;
  twin_options.soc = hw::SocDescription::Diana();
  twin_options.soc.name = "diana-twin";
  const auto twin_key = cache::MakeCacheKey(g, twin_options).ToString();
  EXPECT_EQ(key_to_soc.count(twin_key), 0u)
      << "a renamed SoC with identical geometry reused another SoC's entry";
}

// --- 3. monotonicity -------------------------------------------------------

TEST(SocFamily, ShrinkingL1StrictlyTightensEveryTileBound) {
  const hw::DianaConfig full = hw::FindSoc("diana")->config;
  const hw::DianaConfig half = hw::FindSoc("diana-l1half")->config;
  ASSERT_EQ(half.l1_bytes * 2, full.l1_bytes);

  int binding_layers = 0;
  int layer = 0;
  for (const auto& p : models::Fig4Layers()) {
    const dory::AccelLayerSpec spec = models::MakeConvSpec(p);
    auto sol_full =
        dory::SolveTiling(spec, full, dory::AccelTarget::kDigital, {});
    auto sol_half =
        dory::SolveTiling(spec, half, dory::AccelTarget::kDigital, {});
    ASSERT_TRUE(sol_full.ok()) << "fig4-layer" << layer;
    ASSERT_TRUE(sol_half.ok()) << "fig4-layer" << layer;
    // The tightened bound binds strictly for both solutions (Eq. 2 is a
    // strict inequality), and the halved bound really is half.
    EXPECT_LT(sol_full->l1_bytes, full.l1_bytes) << "fig4-layer" << layer;
    EXPECT_LT(sol_half->l1_bytes, half.l1_bytes) << "fig4-layer" << layer;
    // A full-L1 solution that exceeds the halved budget must be replaced
    // by a finer tiling under diana-l1half.
    if (sol_full->l1_bytes >= half.l1_bytes) {
      ++binding_layers;
      EXPECT_GT(sol_half->TileCount(), sol_full->TileCount())
          << "fig4-layer" << layer;
    }
    ++layer;
  }
  // The Fig. 4 zoo exists to stress tiling; the halved budget must
  // actually bind somewhere or this test proves nothing.
  EXPECT_GT(binding_layers, 0);
}

// --- a description outside the family ---------------------------------------

TEST(SocRegistry, NewFamilyMemberIsImmediatelyUsable) {
  // The compiler reads the description it is handed; the family table is
  // only where the CLIs look names up.
  hw::SocDescription custom = hw::SocDescription::Diana();
  custom.name = "diana-test-l1quarter";
  custom.config.l1_bytes = hw::DianaConfig::Default().l1_bytes / 4;
  EXPECT_FALSE(hw::FindSoc(custom.name).ok());

  compiler::CompileOptions options;
  options.soc = custom;
  const Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  const compiler::Artifact a = MustCompile(g, options);
  EXPECT_EQ(a.soc_name, "diana-test-l1quarter");
  EXPECT_EQ(a.hw_config.l1_bytes, custom.config.l1_bytes);
}

}  // namespace
}  // namespace htvm

// Custom main for the --update-golden escape hatch (same contract as
// codegen_golden_test).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      htvm::g_update_golden = true;
    }
  }
  const char* env = std::getenv("HTVM_UPDATE_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    htvm::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
