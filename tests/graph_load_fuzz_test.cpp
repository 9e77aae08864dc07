// Graph-file and tensor-file fuzz (runs under ASan/UBSan in CI).
//
// Numeric tokens of the registry graphs' text form (ir/serialize.hpp), of
// a one-op graph per OpId, and the numeric header fields of a tensor file
// (vm::SaveTensors), are overwritten with edge values under fixed seeds.
// Each mutant runs in a forked child under an alarm. It must end as a typed
// Status at load, compile or run, or as a completed run on the interpreter
// and on the tiles. A signal, a sanitizer report or the alarm counts as a
// kill or a timeout, and the battery expects none.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "compiler/pipeline.hpp"
#include "ir/serialize.hpp"
#include "models/registry.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "vm/vm_executor.hpp"

namespace htvm {
namespace {

// Child exit codes. Anything else, including a sanitizer's exit 1, is a
// kill.
constexpr int kRan = 0;
constexpr int kLoadError = 10;
constexpr int kCompileError = 11;
constexpr int kRunError = 12;

constexpr unsigned kAlarmSeconds = 30;
constexpr size_t kLanes = 4;  // children alive at once

struct Job {
  std::string what;  // names the mutant in a failure message
  std::function<int()> body;
};

struct Tally {
  int ran = 0, typed = 0, killed = 0, timed_out = 0;
  std::string failures;
};

// Runs every job in its own forked child under the alarm, kLanes at a time.
Tally RunForked(const std::vector<Job>& jobs) {
  Tally tally;
  std::map<pid_t, const Job*> alive;
  auto reap = [&] {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    HTVM_CHECK(pid > 0);
    const Job* job = alive.at(pid);
    alive.erase(pid);
    if (WIFEXITED(status) && WEXITSTATUS(status) == kRan) {
      ++tally.ran;
    } else if (WIFEXITED(status) && WEXITSTATUS(status) >= kLoadError &&
               WEXITSTATUS(status) <= kRunError) {
      ++tally.typed;
    } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) {
      ++tally.timed_out;
      tally.failures += "timeout: " + job->what + "\n";
    } else {
      ++tally.killed;
      tally.failures += "killed: " + job->what + "\n";
    }
  };
  for (const Job& job : jobs) {
    if (alive.size() == kLanes) reap();
    const pid_t pid = fork();
    HTVM_CHECK(pid >= 0);
    if (pid == 0) {
      alarm(kAlarmSeconds);
      _exit(job.body());
    }
    alive[pid] = &job;
  }
  while (!alive.empty()) reap();
  return tally;
}

// Single-threaded compile: a forked child has no pool lanes.
compiler::CompileOptions ChildOptions() {
  compiler::CompileOptions opt;  // mixed: digital and analog
  opt.compile_threads = 1;
  opt.schedule_search.eval_lanes = 1;
  return opt;
}

// Runs `artifact` on `inputs` on the interpreter, then tile by tile.
int RunBoth(const compiler::Artifact& artifact,
            std::span<const Tensor> inputs) {
  for (const bool tiles : {false, true}) {
    const runtime::Executor executor(
        &artifact, runtime::ExecutorOptions{.simulate_tiles = tiles});
    if (!executor.Run(inputs).ok()) return kRunError;
  }
  return kRan;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  HTVM_CHECK(out.good());
}

// A fresh directory for one test's files, removed with them.
struct ScratchDir {
  std::string path = ::testing::TempDir() + "graph_fuzz_XXXXXX";
  ScratchDir() { HTVM_CHECK(mkdtemp(path.data()) != nullptr); }
  ~ScratchDir() { std::filesystem::remove_all(path); }
};

// Edge values for a numeric field that held `v`.
i64 EdgeValue(i64 v, Rng& rng) {
  const i64 values[] = {0,       1,          2,         3,
                        7,       -1,         v + 1,     v - 1,
                        v * 2,   1000,       2000000,   INT32_MAX,
                        INT32_MIN, INT64_MAX};
  return values[rng.NextU64() % std::size(values)];
}

struct Span {
  size_t begin, end;
};

// The numeric tokens on the input and op lines of a graph's text form: an
// input's rank and dims, and an op's input count, input ids, attr count
// and integer attr values (i:<n>, and each field of v:<k>:<n>...).
std::vector<Span> NumericTokens(const std::string& text) {
  std::vector<Span> spans;
  auto is_int = [&](size_t b, size_t e) {
    if (b < e && text[b] == '-') ++b;
    if (b == e) return false;
    for (size_t i = b; i < e; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
    }
    return true;
  };
  for (size_t line = 0; line < text.size();) {
    const size_t eol = std::min(text.find('\n', line), text.size());
    const bool input = text.compare(line, 6, "input ") == 0;
    const bool op = text.compare(line, 3, "op ") == 0;
    size_t index = 0;
    for (size_t b = line; (input || op) && b < eol; ++index) {
      const size_t e = std::min(text.find(' ', b), eol);
      // Skip the record keyword, an input's name and dtype, an op's name.
      if (index >= (input ? 3u : 2u)) {
        if (is_int(b, e)) {
          spans.push_back({b, e});
        } else if (text.compare(b, 2, "i:") == 0 && is_int(b + 2, e)) {
          spans.push_back({b + 2, e});
        } else if (text.compare(b, 2, "v:") == 0) {
          for (size_t f = b + 2; f < e;) {
            const size_t g = std::min(text.find(':', f), e);
            if (is_int(f, g)) spans.push_back({f, g});
            f = g + 1;
          }
        }
      }
      b = e + 1;
    }
    line = eol + 1;
  }
  return spans;
}

TEST(GraphLoadFuzz, MutatedRegistryGraphsAreTypedErrorsOrRuns) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path;
  std::vector<Job> jobs;
  for (const models::RegisteredModel& model : models::Registry()) {
    const std::string path = dir + "/" + model.name + ".htvm";
    const Graph graph = model.build(models::PrecisionPolicy::kMixed);
    ASSERT_TRUE(SaveGraph(graph, path).ok());
    const std::string text = ReadFile(path);
    const std::vector<Span> tokens = NumericTokens(text);
    ASSERT_GT(tokens.size(), 20u) << model.name;
    Rng rng(0x6EA9u + jobs.size());
    for (int m = 0; m < 80; ++m) {
      // One or two tokens, rewritten back to front so spans stay valid.
      std::vector<Span> picked = {tokens[rng.NextU64() % tokens.size()]};
      const Span second = tokens[rng.NextU64() % tokens.size()];
      if (rng.NextU64() % 2 && second.begin != picked[0].begin) {
        picked.push_back(second);
      }
      std::sort(picked.begin(), picked.end(),
                [](Span a, Span b) { return a.begin > b.begin; });
      std::string mutant = text;
      std::string what = model.name;
      for (const Span& s : picked) {
        const std::string old = text.substr(s.begin, s.end - s.begin);
        const std::string value =
            std::to_string(EdgeValue(std::stoll(old), rng));
        mutant.replace(s.begin, s.end - s.begin, value);
        what += " @" + std::to_string(s.begin) + " " + old + "->" + value;
      }
      const std::string mutant_path =
          dir + "/mutant" + std::to_string(jobs.size()) + ".htvm";
      WriteFile(mutant_path, mutant);
      jobs.push_back({what, [mutant_path] {
                        auto graph = LoadGraph(mutant_path);
                        if (!graph.ok()) return kLoadError;
                        auto art = compiler::HtvmCompiler{ChildOptions()}
                                       .Compile(*graph);
                        if (!art.ok()) return kCompileError;
                        return RunBoth(*art, vm::SyntheticInputs(*art, 1));
                      }});
    }
  }
  const Tally tally = RunForked(jobs);
  EXPECT_EQ(tally.killed, 0) << tally.failures;
  EXPECT_EQ(tally.timed_out, 0) << tally.failures;
  // Both ends are reached: the battery is not all rejects or all runs.
  EXPECT_GT(tally.ran, 0);
  EXPECT_GT(tally.typed, 0);
  EXPECT_EQ(tally.ran + tally.typed + tally.killed + tally.timed_out,
            static_cast<int>(jobs.size()));
}

// A one-op graph of `id` in the text form: a small valid geometry for the
// op, its second operand a constant (or, for add, a second input), and
// every attr it reads written out so the mutator can reach it.
std::string OneOpGraph(OpId id) {
  std::string data = "input x int8 4 1 2 4 4\n";
  std::string operand;  // the second input's record, for binary ops
  std::string attrs = "0";
  switch (id) {
    case OpId::kConv2d:
      operand = "const w int8 4 2 2 1 1 1 -1 2 0\n";
      attrs = "3 strides v:2:1:1 padding v:4:1:1:1:1 groups i:1";
      break;
    case OpId::kDense:
      data = "input x int8 2 1 4\n";
      operand = "const w int8 2 3 4 1 2 3 4 5 6 7 8 9 10 11 12\n";
      break;
    case OpId::kMatmul:
      data = "input x int8 2 2 4\n";
      operand = "const w int8 2 3 4 1 2 3 4 5 6 7 8 9 10 11 12\n";
      attrs = "1 transpose_b i:1";
      break;
    case OpId::kBiasAdd:
      operand = "const b int32 1 2 5 -5\n";
      attrs = "1 axis i:1";
      break;
    case OpId::kRightShift:
      operand = "const s int32 1 1 2\n";
      break;
    case OpId::kAdd:
      operand = "input y int8 4 1 2 4 4\n";
      break;
    case OpId::kClip:
      attrs = "2 a_min i:-3 a_max i:3";
      break;
    case OpId::kCast:
      attrs = "1 dtype s:int32";
      break;
    case OpId::kAvgPool2d:
    case OpId::kMaxPool2d:
      attrs = "3 pool_size v:2:2:2 strides v:2:2:2 padding v:4:0:0:1:1";
      break;
    case OpId::kTranspose:
      attrs = "1 axes v:4:0:1:3:2";
      break;
    case OpId::kReshape:
      attrs = "1 new_shape v:3:1:-1:4";
      break;
    case OpId::kPad:
      attrs = "1 pad_width v:4:1:0:0:1";
      break;
    case OpId::kRelu:
    case OpId::kGlobalAvgPool2d:
    case OpId::kSoftmax:
    case OpId::kLayerNorm:
    case OpId::kGelu:
    case OpId::kFlatten:
      break;
  }
  const std::string ins = operand.empty() ? "1 0" : "2 0 1";
  const int out = operand.empty() ? 1 : 2;
  return "htvm-graph v1\n" + data + operand + "op " +
         std::string(OpName(id)) + " " + ins + " " + attrs + "\n" +
         StrFormat("output 1 %d\n", out);
}

// Every op of the table on edge geometry: extents and integer attrs of its
// one-op graph are overwritten with EdgeValue draws (0, 1, negatives,
// INT32_MAX ...) and with extents at the text loader's 2^20 dim cap and
// the 2^26 element cap (8192 x 8192), then loaded, compiled and run on the
// interpreter and on the tiles in forked children.
TEST(GraphLoadFuzz, EveryOpOnEdgeGeometryIsATypedErrorOrRuns) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path;
  std::vector<Job> jobs;
  Rng rng(0x0B1Du);
  const i64 near_cap[] = {8192, i64{1} << 20, (i64{1} << 20) + 1};
  for (int i = 0; i < kNumOps; ++i) {
    const OpId id = static_cast<OpId>(i);
    const std::string text = OneOpGraph(id);
    const std::vector<Span> tokens = NumericTokens(text);
    // The input records' rank and dims, each also zeroed on its own.
    std::vector<Span> input_tokens;
    for (const Span& t : tokens) {
      if (t.begin < text.find("\nop ")) input_tokens.push_back(t);
    }
    const int random_mutants = 16;
    const int count =
        1 + random_mutants + static_cast<int>(input_tokens.size());
    for (int m = 0; m < count; ++m) {
      // Mutant 0 is the valid graph itself, then random rewrites of one to
      // three tokens, then one zeroed input extent each. Rewrites go back to
      // front so spans stay valid.
      std::vector<Span> picked;
      const bool zeroed = m > random_mutants;
      if (zeroed) {
        picked.push_back(
            input_tokens[static_cast<size_t>(m - random_mutants - 1)]);
      }
      for (int k = 0; m > 0 && !zeroed &&
                      k < 1 + static_cast<int>(rng.NextU64() % 3);
           ++k) {
        picked.push_back(tokens[rng.NextU64() % tokens.size()]);
      }
      std::sort(picked.begin(), picked.end(),
                [](Span a, Span b) { return a.begin > b.begin; });
      picked.erase(std::unique(picked.begin(), picked.end(),
                               [](Span a, Span b) {
                                 return a.begin == b.begin;
                               }),
                   picked.end());
      std::string mutant = text;
      std::string what(OpName(id));
      for (const Span& s : picked) {
        const std::string old = text.substr(s.begin, s.end - s.begin);
        const i64 value =
            zeroed                 ? 0
            : rng.NextU64() % 4 == 0 ? near_cap[rng.NextU64() %
                                                std::size(near_cap)]
                                     : EdgeValue(std::stoll(old), rng);
        mutant.replace(s.begin, s.end - s.begin, std::to_string(value));
        what += " @" + std::to_string(s.begin) + " " + old + "->" +
                std::to_string(value);
      }
      const std::string path =
          dir + "/op" + std::to_string(jobs.size()) + ".htvm";
      WriteFile(path, mutant);
      jobs.push_back({what, [path] {
                        auto graph = LoadGraph(path);
                        if (!graph.ok()) return kLoadError;
                        auto art = compiler::HtvmCompiler{ChildOptions()}
                                       .Compile(*graph);
                        if (!art.ok()) return kCompileError;
                        return RunBoth(*art, vm::SyntheticInputs(*art, 1));
                      }});
    }
  }
  const Tally tally = RunForked(jobs);
  EXPECT_EQ(tally.killed, 0) << tally.failures;
  EXPECT_EQ(tally.timed_out, 0) << tally.failures;
  // Each op's unmutated graph runs, so at least kNumOps jobs do.
  EXPECT_GE(tally.ran, kNumOps);
  EXPECT_GT(tally.typed, 0);
}

TEST(GraphLoadFuzz, MutatedTensorFilesAreTypedErrorsOrRuns) {
  const ScratchDir scratch;
  const std::string& dir = scratch.path;
  std::vector<Job> jobs;
  std::vector<std::unique_ptr<compiler::Artifact>> artifacts;
  Rng rng(0x7E45u);
  for (const models::RegisteredModel& model : models::Registry()) {
    auto art = compiler::HtvmCompiler{ChildOptions()}.Compile(
        model.build(models::PrecisionPolicy::kMixed));
    ASSERT_TRUE(art.ok()) << art.status().ToString();
    artifacts.push_back(std::make_unique<compiler::Artifact>(*std::move(art)));
    const compiler::Artifact* artifact = artifacts.back().get();
    const std::vector<Tensor> inputs = vm::SyntheticInputs(*artifact, 1);
    const std::string path = dir + "/" + model.name + ".bin";
    ASSERT_TRUE(vm::SaveTensors(inputs, path).ok());
    const std::string file = ReadFile(path);
    // The header fields: the u32 count after the 8-byte magic, then per
    // tensor a u8 dtype, a u8 rank and an i64 per dim before the payload.
    std::vector<Span> fields = {{8, 12}};
    for (size_t at = 12; const Tensor& t : inputs) {
      fields.push_back({at, at + 1});
      fields.push_back({at + 1, at + 2});
      at += 2;
      for (i64 d = 0; d < t.shape().rank(); ++d, at += 8) {
        fields.push_back({at, at + 8});
      }
      at += static_cast<size_t>(t.SizeBytes());
    }
    for (int m = 0; m < 40; ++m) {
      const Span f = fields[rng.NextU64() % fields.size()];
      std::string mutant = file;
      i64 old = 0;
      std::memcpy(&old, file.data() + f.begin, f.end - f.begin);
      const i64 value = EdgeValue(old, rng);
      std::memcpy(mutant.data() + f.begin, &value, f.end - f.begin);
      // Every fourth mutant also gains or loses trailing bytes.
      if (m % 8 == 3) {
        mutant += "extra";
      } else if (m % 8 == 7) {
        mutant.resize(mutant.size() - 5);
      }
      const std::string mutant_path =
          dir + "/mutant" + std::to_string(jobs.size()) + ".bin";
      WriteFile(mutant_path, mutant);
      const std::string what = StrFormat(
          "%s @%zu %lld->%lld", model.name, f.begin,
          static_cast<long long>(old), static_cast<long long>(value));
      jobs.push_back({what, [mutant_path, artifact] {
                        auto tensors = vm::LoadTensors(mutant_path);
                        if (!tensors.ok()) return kLoadError;
                        return RunBoth(*artifact, *tensors);
                      }});
    }
  }
  const Tally tally = RunForked(jobs);
  EXPECT_EQ(tally.killed, 0) << tally.failures;
  EXPECT_EQ(tally.timed_out, 0) << tally.failures;
  EXPECT_GT(tally.ran, 0);
  EXPECT_GT(tally.typed, 0);
}

}  // namespace
}  // namespace htvm
