#include "dory/graph_plan.hpp"

#include <sstream>

#include "support/string_utils.hpp"

namespace htvm::dory {
namespace {

bool ValidTarget(std::string_view t) {
  return t == "cpu" || t == "digital" || t == "analog";
}

// Plan names travel through whitespace-delimited text records; the
// partitioner only ever produces [A-Za-z0-9._-] composite kinds and SoC
// names, so reject anything that would break the line format.
bool ValidToken(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string GraphPlan::Serialize() const {
  std::string out = StrFormat("graph-plan v1 soc=%s units=%lld\n",
                              soc_name.c_str(),
                              static_cast<long long>(decisions.size()));
  for (const PlanDecision& d : decisions) {
    out += StrFormat("unit %s %s fuse=%d\n", d.pattern.c_str(),
                     d.target.c_str(), d.fuse_with_next ? 1 : 0);
  }
  return out;
}

Result<GraphPlan> GraphPlan::Deserialize(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string tag, version, soc_kv, units_kv;
  if (!(in >> tag >> version >> soc_kv >> units_kv) || tag != "graph-plan") {
    return Status::InvalidArgument("graph plan: malformed header");
  }
  if (version != "v1") {
    return Status::InvalidArgument(
        StrFormat("graph plan: unsupported version '%s'", version.c_str()));
  }
  if (soc_kv.rfind("soc=", 0) != 0 || units_kv.rfind("units=", 0) != 0) {
    return Status::InvalidArgument("graph plan: malformed header fields");
  }
  GraphPlan plan;
  plan.soc_name = soc_kv.substr(4);
  if (!ValidToken(plan.soc_name)) {
    return Status::InvalidArgument("graph plan: invalid soc name");
  }
  i64 units = -1;
  try {
    units = std::stoll(units_kv.substr(6));
  } catch (...) {
    return Status::InvalidArgument("graph plan: malformed unit count");
  }
  // An adversarial count cannot allocate unbounded memory: each unit must
  // be backed by an actual record line below.
  if (units < 0 || units > 1'000'000) {
    return Status::InvalidArgument("graph plan: unit count out of range");
  }
  for (i64 i = 0; i < units; ++i) {
    std::string kw, pattern, target, fuse_kv;
    if (!(in >> kw >> pattern >> target >> fuse_kv) || kw != "unit") {
      return Status::InvalidArgument(
          StrFormat("graph plan: truncated at unit %lld",
                    static_cast<long long>(i)));
    }
    if (!ValidToken(pattern)) {
      return Status::InvalidArgument("graph plan: invalid pattern name");
    }
    if (!ValidTarget(target)) {
      return Status::InvalidArgument(
          StrFormat("graph plan: unknown target '%s'", target.c_str()));
    }
    if (fuse_kv != "fuse=0" && fuse_kv != "fuse=1") {
      return Status::InvalidArgument("graph plan: malformed fuse flag");
    }
    PlanDecision d;
    d.pattern = std::move(pattern);
    d.target = std::move(target);
    d.fuse_with_next = fuse_kv == "fuse=1";
    plan.decisions.push_back(std::move(d));
  }
  std::string extra;
  if (in >> extra) {
    return Status::InvalidArgument("graph plan: trailing data after units");
  }
  // Structural sanity: a fused successor shares the engine of its leader
  // and a fuse bit cannot dangle past the last unit or chain (pairs only).
  for (size_t i = 0; i < plan.decisions.size(); ++i) {
    if (!plan.decisions[i].fuse_with_next) continue;
    if (i + 1 >= plan.decisions.size()) {
      return Status::InvalidArgument("graph plan: fuse bit on last unit");
    }
    if (plan.decisions[i + 1].fuse_with_next) {
      return Status::InvalidArgument(
          "graph plan: fusion chains longer than a pair");
    }
    if (plan.decisions[i + 1].target != plan.decisions[i].target) {
      return Status::InvalidArgument(
          "graph plan: fused pair spans two engines");
    }
  }
  return plan;
}

i64 GraphPlan::FusedPairs() const {
  i64 n = 0;
  for (const PlanDecision& d : decisions) n += d.fuse_with_next ? 1 : 0;
  return n;
}

i64 GraphPlan::CpuDecisions() const {
  i64 n = 0;
  for (const PlanDecision& d : decisions) n += d.target == "cpu" ? 1 : 0;
  return n;
}

}  // namespace htvm::dory
