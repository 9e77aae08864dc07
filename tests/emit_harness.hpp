// Compile-and-run harness for emitted C, shared by the emitted-C tests:
// write sources into a directory, build them with the host `cc`, run the
// binary, and read back the bytes it writes to stdout.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/emit.hpp"
#include "support/status.hpp"
#include "tensor/tensor.hpp"

namespace htvm::emit_harness {

inline bool HostCcAvailable() {
  return std::system("command -v cc > /dev/null") == 0;
}

// One int8 stream drawn on both sides of a differential: `htvm_fill` in
// the generated C and FillSeeded below step the same LCG.
inline constexpr const char* kCFill =
    "static uint32_t htvm_state = 1;\n"
    "static void htvm_fill(int8_t* p, long n) {\n"
    "  for (long i = 0; i < n; ++i) {\n"
    "    htvm_state = htvm_state * 1664525u + 1013904223u;\n"
    "    p[i] = (int8_t)(htvm_state >> 24);\n"
    "  }\n"
    "}\n";

inline void FillSeeded(Tensor* t, u32* state) {
  i8* p = t->data<i8>().data();
  for (i64 i = 0; i < t->NumElements(); ++i) {
    *state = *state * 1664525u + 1013904223u;
    p[i] = static_cast<i8>(*state >> 24);
  }
}

// Writes `files` into `dir`, builds the `sources` among them with
// `cc <flags>`, runs the binary and returns what it wrote to stdout. A
// failed build or run is an error naming the log to read.
inline Result<std::string> BuildAndRun(
    const std::string& dir, const std::map<std::string, std::string>& files,
    const std::vector<std::string>& sources, const std::string& flags) {
  std::system(("mkdir -p " + dir).c_str());
  for (const auto& [name, contents] : files) {
    std::ofstream(dir + "/" + name, std::ios::binary) << contents;
  }
  std::string cmd = "cc " + flags + " -o " + dir + "/bin";
  for (const std::string& s : sources) cmd += " " + dir + "/" + s;
  cmd += " 2> " + dir + "/cc.log";
  if (std::system(cmd.c_str()) != 0) {
    return Status::Internal("emitted C failed to build; see " + dir +
                            "/cc.log");
  }
  if (std::system((dir + "/bin > " + dir + "/out.bin").c_str()) != 0) {
    return Status::Internal("emitted C binary failed in " + dir);
  }
  std::ifstream in(dir + "/out.bin", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Builds an emitted network next to a main() that runs `<name>_run` on
// `input`, and expects its output bytes to equal `expected`'s.
inline void ExpectEmittedRunMatches(const compiler::EmittedArtifact& emitted,
                                    const std::string& name,
                                    const Tensor& input,
                                    const Tensor& expected) {
  std::map<std::string, std::string> files = emitted.files;
  std::string main_c = "#include <stdio.h>\n#include \"" + name + ".h\"\n";
  main_c += "static const int8_t input[] = {";
  for (i64 i = 0; i < input.NumElements(); ++i) {
    if (i) main_c += ",";
    main_c += std::to_string(input.GetFlat(i));
  }
  main_c += "};\nint main(void) {\n";
  main_c += "  static int8_t out[" + std::to_string(expected.NumElements()) +
            "];\n";
  main_c += "  " + name + "_run(input, out);\n";
  main_c += "  fwrite(out, 1, sizeof out, stdout);\n  return 0;\n}\n";
  files["main.c"] = main_c;
  // No -lm: the emitted helpers are integer-only.
  auto out = BuildAndRun(::testing::TempDir() + "/htvm_emit_" + name, files,
                         {name + ".c", "main.c"},
                         "-std=c11 -O1 -Wall -Wextra -Werror");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(static_cast<i64>(out->size()), expected.NumElements());
  i64 mismatched = 0;
  for (i64 i = 0; i < expected.NumElements(); ++i) {
    mismatched += static_cast<i8>((*out)[static_cast<size_t>(i)]) !=
                  expected.GetFlat(i);
  }
  EXPECT_EQ(mismatched, 0) << "of " << expected.NumElements()
                           << " output elements";
}

}  // namespace htvm::emit_harness
