#include "models/registry.hpp"

#include <cctype>

#include "models/mlperf_tiny.hpp"
#include "models/transformer.hpp"
#include "support/string_utils.hpp"

namespace htvm::models {
namespace {

// The transformer is int8-only: the analog array never accepts its layers,
// so the precision policy has nothing to route and is ignored.
Graph BuildTinyTransformerAnyPolicy(PrecisionPolicy) {
  return BuildTinyTransformerDefault();
}

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

}  // namespace

const std::vector<RegisteredModel>& Registry() {
  static const std::vector<RegisteredModel> kModels = {
      {"dscnn", "Keyword Spotting", &BuildDsCnn, Shape{1, 1, 49, 10}},
      {"mobilenet", "Visual Wake Words", &BuildMobileNetV1,
       Shape{1, 3, 96, 96}},
      {"resnet", "Image Classification", &BuildResNet8, Shape{1, 3, 32, 32}},
      {"toyadmos", "Anomaly Detection", &BuildToyAdmosDae, Shape{1, 640}},
      {"transformer", "Attention Workload", &BuildTinyTransformerAnyPolicy,
       Shape{16, 32}},
  };
  return kModels;
}

Result<Graph> BuildByName(const std::string& name, PrecisionPolicy policy) {
  const std::string key = Lower(name);
  for (const RegisteredModel& m : Registry()) {
    if (key == m.name) return m.build(policy);
  }
  std::vector<std::string> names;
  for (const RegisteredModel& m : Registry()) names.emplace_back(m.name);
  return Status::NotFound("unknown model '" + name + "' (registered: " +
                          Join(names, ", ") + ")");
}

std::string DescribeRegistry() {
  std::string out;
  for (const RegisteredModel& m : Registry()) {
    out += StrFormat("  %-12s %-20s input %s\n", m.name, m.task,
                     m.default_input.ToString().c_str());
  }
  return out;
}

namespace {
using compiler::CompileOptions;
constexpr DeployConfig kDeployConfigs[] = {
    {"tvm", PrecisionPolicy::kInt8, &CompileOptions::PlainTvm},
    {"digital", PrecisionPolicy::kInt8, &CompileOptions::DigitalOnly},
    {"analog", PrecisionPolicy::kTernary, &CompileOptions::AnalogOnly},
    {"mixed", PrecisionPolicy::kMixed, [] { return CompileOptions{}; }},
};
}  // namespace

std::span<const DeployConfig> DeployConfigs() { return kDeployConfigs; }

const DeployConfig* FindDeployConfig(std::string_view name) {
  for (const DeployConfig& config : kDeployConfigs) {
    if (name == config.name) return &config;
  }
  return nullptr;
}

}  // namespace htvm::models
