// HAB (htvm-artifact v2) round-trip and end-to-end VM tests.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include "cache/artifact_cache.hpp"
#include "compiler/pipeline.hpp"
#include "hab_diff.hpp"
#include "hw/soc.hpp"
#include "models/mlperf_tiny.hpp"
#include "runtime/executor.hpp"
#include "vm/codec.hpp"
#include "vm/hab.hpp"
#include "vm/loaded_artifact.hpp"
#include "vm/vm_executor.hpp"

namespace htvm::vm {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("htvm_vm_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::span<const u8> AsSpan(const std::string& bytes) {
  return {reinterpret_cast<const u8*>(bytes.data()), bytes.size()};
}

compiler::Artifact CompileDsCnn() {
  Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  auto artifact = compiler::HtvmCompiler{{}}.Compile(g);
  HTVM_CHECK(artifact.ok());
  return std::move(*artifact);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// First in the file: the forked child starts with the parent's resident
// pages, which are fewest before any other test has run.
TEST(TensorFile, HugeHeaderWithoutPayloadFailsInBoundedMemory) {
  TempDir dir;
  const std::string path = dir.file("forged.tensors");
  // 46 bytes declaring int32 [1, 1, 8192, 8192]: 2^26 elements, 256 MB.
  Encoder e;
  e.Raw("HTVMTEN1", 8);
  e.U32(1);
  EncodeTensorType(e, DType::kInt32, Shape{1, 1, 8192, 8192});
  ASSERT_EQ(e.bytes().size(), 46u);
  std::ofstream(path, std::ios::binary) << e.bytes();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto loaded = LoadTensors(path);
    const bool typed = !loaded.ok() &&
                       loaded.status().code() == StatusCode::kInvalidArgument;
    _exit(typed ? 0 : 1);
  }
  int status = 0;
  rusage usage{};
  ASSERT_EQ(wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "not an InvalidArgument";
  // Sanitizer shadow memory and allocator quarantine inflate RSS, so the
  // bound only holds in plain builds.
  if (!kSanitized) {
    EXPECT_LT(usage.ru_maxrss, 32 * 1024) << "peak RSS in KiB";
  }
}

TEST(Hab, RoundTripIsBitIdentical) {
  const compiler::Artifact a = CompileDsCnn();
  HabMeta meta;
  meta.model_name = "dscnn";
  meta.producer = "test";
  const std::string bytes = SerializeHab(a, meta);
  ASSERT_TRUE(LooksLikeHab(bytes));

  auto parsed = ParseHab({reinterpret_cast<const u8*>(bytes.data()),
                          bytes.size()});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.model_name, "dscnn");
  EXPECT_EQ(parsed->meta.producer, "test");

  // The reparsed artifact's canonical form matches the original's...
  EXPECT_PRED_FORMAT2(test::HabBytesEq, SerializeHabForDiff(parsed->artifact),
                      SerializeHabForDiff(a));
  // ...and the binary form itself is deterministic + stable across a cycle.
  EXPECT_PRED_FORMAT2(test::HabBytesEq,
                      SerializeHab(parsed->artifact, parsed->meta), bytes);
}

TEST(Hab, SectionTableIsComplete) {
  const compiler::Artifact a = CompileDsCnn();
  const std::string bytes = SerializeHab(a);
  auto parsed = ParseHab({reinterpret_cast<const u8*>(bytes.data()),
                          bytes.size()});
  ASSERT_TRUE(parsed.ok());
  // A default-SoC (diana) artifact has no kSoc section: the byte format is
  // identical to what pre-SoC-family writers produced.
  ASSERT_EQ(parsed->sections.size(), 8u);
  for (u32 id = 1; id <= 8; ++id) {
    EXPECT_EQ(parsed->sections[id - 1].id, id);
    EXPECT_EQ(parsed->sections[id - 1].offset % 8, 0) << "section " << id;
  }
  EXPECT_EQ(parsed->artifact.soc_name, "diana");
}

TEST(Hab, SocIdentityRoundTrips) {
  // A non-default SoC adds the kSoc section and survives the round trip
  // bit-identically; the parsed artifact carries the SoC name the compiler
  // recorded.
  Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions options;
  options.soc = *hw::FindSoc("diana-l1half");
  auto compiled = compiler::HtvmCompiler{options}.Compile(g);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->soc_name, "diana-l1half");

  const std::string bytes = SerializeHab(*compiled);
  auto parsed = ParseHab({reinterpret_cast<const u8*>(bytes.data()),
                          bytes.size()});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 9u);
  EXPECT_EQ(parsed->sections.back().id,
            static_cast<u32>(HabSection::kSoc));
  EXPECT_EQ(parsed->artifact.soc_name, "diana-l1half");
  EXPECT_EQ(SerializeHab(parsed->artifact, parsed->meta), bytes);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, SerializeHabForDiff(parsed->artifact),
                      SerializeHabForDiff(*compiled));
}

TEST(Hab, RoundTripsAllExampleModels) {
  // Every MLPerf Tiny model x a heterogeneous and a digital-only config:
  // parse the image back and re-serialize — the bytes must be identical
  // (ParseHab also validates the kernel graph).
  for (const auto& m : models::MlperfTinySuite()) {
    for (const auto& [cfg, opt] :
         {std::pair<const char*, compiler::CompileOptions>{
              "mixed", compiler::CompileOptions{}},
          {"digital", compiler::CompileOptions::DigitalOnly()}}) {
      auto compiled = compiler::HtvmCompiler{opt}.Compile(
          m.build(models::PrecisionPolicy::kMixed));
      ASSERT_TRUE(compiled.ok()) << m.name << "/" << cfg;
      const std::string bytes = SerializeHab(*compiled);
      auto parsed = ParseHab(AsSpan(bytes));
      ASSERT_TRUE(parsed.ok())
          << m.name << "/" << cfg << ": " << parsed.status().ToString();
      EXPECT_PRED_FORMAT2(test::HabBytesEq,
                          SerializeHab(parsed->artifact, parsed->meta), bytes)
          << m.name << "/" << cfg;
    }
  }
}

TEST(Hab, FileRoundTripThroughLoader) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  HabMeta meta;
  meta.model_name = "dscnn";
  const std::string path = dir.file("model.hab");
  ASSERT_TRUE(SaveHab(a, meta, path).ok());

  auto loaded = LoadedArtifact::FromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->zero_copy_source());
  EXPECT_GT(loaded->file_bytes(), 0);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, SerializeHabForDiff(loaded->artifact()),
                      SerializeHabForDiff(a));
}

TEST(Hab, MissingFileIsNotFound) {
  auto loaded = LoadedArtifact::FromFile("/nonexistent/model.hab");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// The deployment story: compile once, save the HAB, and a fresh runner that
// loads the file reproduces the in-process run bit for bit, on every MLPerf
// Tiny model.
TEST(Hab, LoadedFileRunsBitExactWithInProcessExecutor) {
  TempDir dir;
  for (const auto& model : models::MlperfTinySuite()) {
    SCOPED_TRACE(model.name);
    auto a = compiler::HtvmCompiler{{}}.Compile(
        model.build(models::PrecisionPolicy::kMixed));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    const std::string path = dir.file(std::string(model.name) + ".hab");
    ASSERT_TRUE(SaveHab(*a, {}, path).ok());
    auto loaded = LoadedArtifact::FromFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const runtime::Executor from_file(loaded->artifact_ptr());
    const runtime::Executor in_process(&*a);
    const std::vector<Tensor> inputs = SyntheticInputs(*a, 42);

    auto from_vm = from_file.Run(inputs);
    auto from_compile = in_process.Run(inputs);
    ASSERT_TRUE(from_vm.ok()) << from_vm.status().ToString();
    ASSERT_TRUE(from_compile.ok()) << from_compile.status().ToString();
    ASSERT_EQ(from_vm->outputs.size(), from_compile->outputs.size());
    for (size_t i = 0; i < from_vm->outputs.size(); ++i) {
      EXPECT_TRUE(from_vm->outputs[i].SameAs(from_compile->outputs[i]));
    }
    EXPECT_EQ(loaded->artifact().TotalFullCycles(), a->TotalFullCycles());
  }
}

TEST(Hab, TensorFileRoundTrip) {
  TempDir dir;
  Rng rng(5);
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor::Random(Shape{1, 8, 4, 4}, DType::kInt8, rng));
  tensors.push_back(Tensor::Random(Shape{12}, DType::kInt32, rng));
  const std::string path = dir.file("io.tensors");
  ASSERT_TRUE(SaveTensors(tensors, path).ok());

  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE((*loaded)[0].SameAs(tensors[0]));
  EXPECT_TRUE((*loaded)[1].SameAs(tensors[1]));

  EXPECT_EQ(LoadTensors(dir.file("missing.tensors")).status().code(),
            StatusCode::kNotFound);
  std::ofstream(dir.file("junk.tensors")) << "not a tensor file";
  EXPECT_EQ(LoadTensors(dir.file("junk.tensors")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Hab, CacheWritesHabAndRepairsV1Text) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();

  // New entries land on disk as HAB binaries...
  cache::ArtifactCache fresh({.dir = dir.path.string()});
  fresh.Store("model-a", a);
  {
    std::ifstream in(dir.file("model-a.htvmart"), std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string head(8, '\0');
    in.read(head.data(), 8);
    EXPECT_TRUE(LooksLikeHab(head));
  }

  // ...while a v1 text file left by an older build fails the magic check:
  // it is a miss, and the Store after the recompile replaces it with HAB.
  std::ofstream(dir.file("model-b.htvmart")) << "htvm-artifact v1\nend\n";
  cache::ArtifactCache reader({.dir = dir.path.string()});
  auto from_hab = reader.Lookup("model-a");
  ASSERT_NE(from_hab, nullptr);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, SerializeHabForDiff(*from_hab),
                      SerializeHabForDiff(a));
  EXPECT_EQ(reader.Lookup("model-b"), nullptr);
  reader.Store("model-b", a);
  EXPECT_EQ(reader.stats().disk_writes, 1);
  auto repaired = LoadedArtifact::FromFile(dir.file("model-b.htvmart"));
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_PRED_FORMAT2(test::HabBytesEq,
                      SerializeHabForDiff(repaired->artifact()),
                      SerializeHabForDiff(a));
}

// Checksum-valid artifacts whose contents do not hang together are refused
// at load with InvalidArgument, each for its own reason — whether the
// forgery reaches ValidateArtifact directly or through a HAB file.
TEST(Hab, LoadTimeValidationRejectsInconsistentArtifacts) {
  const compiler::Artifact good = CompileDsCnn();
  ASSERT_TRUE(ValidateArtifact(good).ok());
  const auto accel = [](compiler::Artifact& a) -> compiler::CompiledKernel& {
    for (compiler::CompiledKernel& k : a.kernels) {
      if (k.schedule.has_value()) return k;
    }
    HTVM_UNREACHABLE("no accelerator kernel");
  };
  // Rewrites the first clip of the accelerator kernel's requant chain to
  // [-100, 127]: the interpreter would run it, the output stage cannot.
  const auto loosen_clip = [&](compiler::Artifact& a) {
    Node& composite = a.kernel_graph.mutable_node(accel(a).node);
    auto body = std::make_shared<Graph>(*composite.body);
    for (const Node& n : body->nodes()) {
      if (n.IsOp("clip") && body->node(n.inputs[0]).IsOp("right_shift")) {
        body->mutable_node(n.id).attrs.Set("a_min", i64{-100});
      }
    }
    composite.body = std::move(body);
  };
  struct Forgery {
    const char* expect;  // part of the error message
    std::function<void(compiler::Artifact&)> forge;
  };
  const Forgery forgeries[] = {
      {"tile size outside",
       [&](auto& a) { accel(a).schedule->solution.c_t = 0; }},
      {"tile grid", [&](auto& a) { accel(a).schedule->solution.n_y += 1; }},
      {"tile count",
       [&](auto& a) { accel(a).schedule->steps.push_back({}); }},
      {"does not rebuild",
       [&](auto& a) { accel(a).schedule->steps[0].compute_cycles += 1; }},
      {"does not rebuild",
       [&](auto& a) { accel(a).schedule->spec.ix = i64{1} << 58; }},
      {"does not rebuild", [](auto& a) { a.hw_config.dma.setup_cycles += 1; }},
      {"perf does not match",
       [&](auto& a) { accel(a).perf.full_cycles += 1; }},
      {"saturating clip must be [-128, 127]", loosen_clip},
      {"out-of-range", [](auto& a) { a.hw_config.digital.pe_rows = 0; }},
      {"node order",
       [](auto& a) { std::swap(a.kernels[0], a.kernels[1]); }},
      {"names no composite",
       [](auto& a) { a.kernels.push_back(a.kernels.back()); }},
      {"exactly one memory-plan buffer",
       [](auto& a) { a.memory_plan.buffers.pop_back(); }},
      {"outside the arena",
       [](auto& a) {
         a.memory_plan.buffers[0].offset = a.memory_plan.arena_bytes;
       }},
  };
  for (const Forgery& f : forgeries) {
    SCOPED_TRACE(f.expect);
    compiler::Artifact forged = good;
    f.forge(forged);
    const Status direct = ValidateArtifact(forged);
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(direct.message().find(f.expect), std::string::npos)
        << direct.ToString();
    const std::string bytes = SerializeHab(forged);
    auto parsed = ParseHab(AsSpan(bytes));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().ToString(), direct.ToString());
  }
}

// A HAB whose kSoc section names "diana", with its checksum fixed up so
// only the SoC rule can reject it. The writer spells "diana" by omitting
// the section, so this encoding never comes from a real producer.
std::string ForgeExplicitDianaSoc() {
  compiler::Artifact a = CompileDsCnn();
  a.soc_name = "dianX";  // as long as "diana": the layout is unchanged
  std::string bytes = SerializeHab(a);
  const test::SectionEntry soc =
      test::FindSectionEntry(bytes, HabSection::kSoc);
  HTVM_CHECK(soc.bytes > 0);
  // Payload: u32 length, then the name bytes.
  bytes.replace(static_cast<size_t>(soc.offset) + 4, 5, "diana");
  test::FixChecksum(bytes, soc);
  return bytes;
}

TEST(Hab, ExplicitDianaSocSectionIsRejected) {
  // Two encodings of one artifact would break content addressing, so the
  // non-canonical one is a typed error...
  const std::string forged = ForgeExplicitDianaSoc();
  auto parsed = ParseHab(AsSpan(forged));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("non-default SoC"),
            std::string::npos)
      << parsed.status().ToString();

  // ...and the same file in a cache dir is a miss, never a crash.
  TempDir dir;
  std::ofstream(dir.file("forged.htvmart"), std::ios::binary) << forged;
  cache::ArtifactCache reader({.dir = dir.path.string()});
  EXPECT_EQ(reader.Lookup("forged"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1);
}

TEST(Hab, CorruptCacheFileDegradesToMiss) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  cache::ArtifactCache writer({.dir = dir.path.string()});
  writer.Store("model", a);

  // Flip one byte in the middle of the file: checksum must catch it and the
  // cache must treat the file as a miss instead of crashing.
  const std::string path = dir.file("model.htvmart");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  cache::ArtifactCache reader({.dir = dir.path.string()});
  EXPECT_EQ(reader.Lookup("model"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1);
}

}  // namespace
}  // namespace htvm::vm
