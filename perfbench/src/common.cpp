#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "hw/soc.hpp"
#include "support/string_utils.hpp"
#include "vm/hab.hpp"

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Outcome::ToJson() const {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      failed_ == 0 && attempted_ > 0 ? "true" : "false",
      static_cast<long long>(attempted_), static_cast<long long>(failed_));
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     first ? "" : ", ", name.c_str(), metric.first,
                     metric.second.c_str());
    first = false;
  }
  return out + "}}";
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  size_t idx = static_cast<size_t>(std::max(0.0, std::ceil(rank) - 1));
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 MixSeed(u64 base, u64 a, u64 b) {
  // splitmix64 finalizer over the combined words.
  u64 z = base ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string DigestBytes(const std::string& bytes) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(vm::HabChecksum(
                       reinterpret_cast<const u8*>(bytes.data()),
                       bytes.size())));
}

std::string DigestTensors(const std::vector<Tensor>& tensors) {
  std::string bytes;
  for (const Tensor& t : tensors) {
    bytes += StrFormat("%s%s|", DTypeName(t.dtype()),
                       t.shape().ToString().c_str());
    bytes.append(reinterpret_cast<const char*>(t.raw()),
                 static_cast<size_t>(t.SizeBytes()));
  }
  return DigestBytes(bytes);
}

bool SameTensors(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameAs(b[i])) return false;
  }
  return true;
}

DigestBook::DigestBook(const Settings& settings, const std::string& name)
    : path_(settings.data_dir + "/digests/" + name + ".txt"),
      regen_(settings.regen) {
  if (regen_) return;
  std::ifstream in(path_);
  std::string key, digest;
  while (in >> key >> digest) recorded_[key] = digest;
}

void DigestBook::Check(const std::string& key, const std::string& digest,
                       Outcome* out) {
  if (regen_) {
    recorded_[key] = digest;
    return;
  }
  const auto it = recorded_.find(key);
  if (it == recorded_.end()) {
    out->Fail("no recorded digest for " + key + " in " + path_);
  } else if (it->second != digest) {
    out->Fail("digest mismatch for " + key + ": got " + digest +
              ", recorded " + it->second);
  }
}

Status DigestBook::Finish() const {
  if (!regen_) return Status::Ok();
  std::ofstream f(path_);
  for (const auto& [key, digest] : recorded_) f << key << ' ' << digest << '\n';
  f.close();
  if (!f) return Status::Internal("cannot write " + path_);
  std::fprintf(stderr, "perfbench: recorded %zu digests in %s\n",
               recorded_.size(), path_.c_str());
  return Status::Ok();
}

const std::vector<DeployConfig>& DeployConfigs() {
  static const std::vector<DeployConfig> kConfigs = {
      {"tvm", models::PrecisionPolicy::kInt8,
       &compiler::CompileOptions::PlainTvm},
      {"digital", models::PrecisionPolicy::kInt8,
       &compiler::CompileOptions::DigitalOnly},
      {"analog", models::PrecisionPolicy::kTernary,
       &compiler::CompileOptions::AnalogOnly},
      {"mixed", models::PrecisionPolicy::kMixed,
       +[] { return compiler::CompileOptions{}; }},
  };
  return kConfigs;
}

const DeployConfig& ConfigByName(const std::string& name) {
  for (const DeployConfig& c : DeployConfigs()) {
    if (name == c.name) return c;
  }
  HTVM_CHECK_MSG(false, "unknown deployment config");
  return DeployConfigs().front();
}

compiler::CompileOptions PinnedOptions(const Settings& s,
                                       const DeployConfig& config,
                                       const std::string& soc,
                                       dory::ScheduleSearchKind search) {
  compiler::CompileOptions o = config.options();
  auto desc = hw::FindSoc(soc);
  HTVM_CHECK_MSG(desc.ok(), "unknown SoC");
  o.soc = *desc;
  o.schedule_search.kind = search;
  o.schedule_search.eval_lanes = s.eval_lanes;
  o.compile_threads = s.compile_threads;
  return o;
}

void PassTotals::Add(const compiler::Artifact& art, double compile_wall_ms) {
  for (const compiler::PassStat& p : art.pass_timeline) {
    pass_ms[p.name] += static_cast<double>(p.wall_ns) / 1e6;
  }
  compile_ms += compile_wall_ms;
  kernels += static_cast<i64>(art.kernels.size());
  ++cells;
}

// ---- span recorder ---------------------------------------------------------

namespace {

struct SpanRecord {
  const char* layer;
  std::string name;
  double ts_us;
  double dur_us;
  i64 id;
  i64 parent;
};

// Enough for the setup and the first suite passes of any workload; beyond
// it spans are counted as dropped but still timed.
constexpr size_t kMaxSpans = 200000;

struct TraceState {
  bool enabled = false;
  Clock::time_point t0 = Clock::now();
  std::vector<SpanRecord> spans;
  std::vector<i64> stack;  // ids of the open spans, innermost last
  i64 next_id = 0;
  i64 dropped = 0;
};

TraceState& State() {
  static TraceState state;
  return state;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void EnableTracing(bool on) { State().enabled = on; }

Span::Span(const char* layer, std::string name)
    : layer_(layer), name_(std::move(name)) {
  TraceState& st = State();
  if (st.enabled) {
    id_ = st.next_id++;
    parent_ = st.stack.empty() ? -1 : st.stack.back();
    st.stack.push_back(id_);
  }
  start_ = Clock::now();
}

double Span::Stop() {
  if (!open_) return ms_;
  const Clock::time_point end = Clock::now();
  open_ = false;
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (id_ >= 0) {
    TraceState& st = State();
    if (!st.stack.empty() && st.stack.back() == id_) st.stack.pop_back();
    if (st.spans.size() < kMaxSpans) {
      const double ts =
          std::chrono::duration<double, std::micro>(start_ - st.t0).count();
      st.spans.push_back(
          {layer_, std::move(name_), ts, ms_ * 1000.0, id_, parent_});
    } else {
      ++st.dropped;
    }
  }
  return ms_;
}

Status WriteTrace(const std::string& path, const std::string& metadata_json) {
  const TraceState& st = State();
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot open " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata_json
    << ", \"droppedSpans\": " << st.dropped << ", \"traceEvents\": [\n";
  char buf[128];
  for (size_t i = 0; i < st.spans.size(); ++i) {
    const SpanRecord& s = st.spans[i];
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f", s.ts_us, s.dur_us);
    f << (i == 0 ? "" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
      << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"pid\": 1, "
      << "\"tid\": 1, \"ts\": " << buf << ", \"args\": {\"id\": " << s.id
      << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n]}\n";
  f.close();
  if (!f) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

}  // namespace perfbench
