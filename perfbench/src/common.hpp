// Shared pieces of the perfbench program: run settings, the result record
// printed as the last stdout line, order statistics, and the span recorder
// behind the traced run.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "models/precision.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using namespace htvm;

struct Settings {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool regen = false;           // rewrite the recorded digests
  std::string data_dir;         // perfbench/ (digests live under it)
  std::string out_dir;          // where the traced run writes its trace
  // Thread counts, each pinned to at most nproc (see main.cpp).
  int nproc = 1;
  int compile_threads = 1;
  int eval_lanes = 1;
  int serve_workers = 1;
};

// What one run prints: op accounting plus named metrics with units.
class Outcome {
 public:
  void Attempt() { ++attempted_; }
  // Counts one failed op and says why on stderr.
  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit);

  i64 failed() const { return failed_; }
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  i64 attempted_ = 0;
  i64 failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

double PeakRssMb();

// Deterministic per-draw seed: the same (base, a, b) always gives the same
// value, distinct draws give unrelated ones.
u64 MixSeed(u64 base, u64 a, u64 b = 0);

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* v, u64 seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    const i64 j = rng.UniformInt(0, static_cast<i64>(i - 1));
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(j)]);
  }
}

// FNV-1a 64 hex digest of a byte string or of a tensor list (dtype, shape
// and payload).
std::string DigestBytes(const std::string& bytes);
std::string DigestTensors(const std::vector<Tensor>& tensors);
bool SameTensors(const std::vector<Tensor>& a, const std::vector<Tensor>& b);

// Recorded digests: one "key digest" line each, under data_dir/digests/.
// `Check` compares against the file, or records into it in regen mode;
// `Finish` writes the recorded file in regen mode.
class DigestBook {
 public:
  DigestBook(const Settings& settings, const std::string& name);
  // One failed op on `out` when `digest` disagrees with the recorded one or
  // no digest is recorded for `key`.
  void Check(const std::string& key, const std::string& digest,
             Outcome* out);
  Status Finish() const;

 private:
  std::string path_;
  bool regen_;
  std::map<std::string, std::string> recorded_;
};

// Model configurations of Table I: precision policy + compile preset.
struct DeployConfig {
  const char* name;
  models::PrecisionPolicy policy;
  compiler::CompileOptions (*options)();
};
const std::vector<DeployConfig>& DeployConfigs();
const DeployConfig& ConfigByName(const std::string& name);

// Compile options for one cell with every thread count pinned.
compiler::CompileOptions PinnedOptions(const Settings& s,
                                       const DeployConfig& config,
                                       const std::string& soc,
                                       dory::ScheduleSearchKind search);

// setup_s: the workload's set-up runs this many times (each from scratch,
// the last one's state is kept) and the median is reported.
constexpr int kSetups = 5;

// Runs `setup` (returns false on failure, which stops the repeats) up to
// kSetups times; returns the median wall time in seconds.
template <typename F>
double TimeSetups(F setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const bool ok = setup();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    if (!ok) break;
  }
  return Median(seconds);
}

// Per-pass compile time read from Artifact::pass_timeline, summed over the
// artifacts added.
struct PassTotals {
  std::map<std::string, double> pass_ms;
  double compile_ms = 0;  // Compile wall time measured around the call
  i64 cells = 0;
  i64 kernels = 0;
  void Add(const compiler::Artifact& art, double compile_wall_ms);
};

// ---- span recorder ---------------------------------------------------------
//
// Spans are kept in memory (up to a fixed count; later spans are only
// counted) and written as Chrome trace-event JSON at exit. A Span always
// measures its duration; it is recorded only when tracing is on. Spans nest
// by construction order on the benchmark's own thread, which is the only
// thread that opens them.

using Clock = std::chrono::steady_clock;

void EnableTracing(bool on);
Status WriteTrace(const std::string& path, const std::string& metadata_json);

class Span {
 public:
  Span(const char* layer, std::string name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (once) and returns its duration in ms.
  double Stop();

 private:
  const char* layer_;
  std::string name_;
  Clock::time_point start_;
  i64 id_ = -1;      // -1 when tracing is off
  i64 parent_ = -1;
  bool open_ = true;
  double ms_ = 0;
};

}  // namespace perfbench
