// A fleet of simulated SoC instances, possibly of mixed hardware
// generations (SocDescription kinds, hw/soc.hpp).
//
// Each instance keeps its *own* accumulated counters — inference count,
// simulated cycles, and a per-kernel hw::RunProfile aggregate — behind its
// own mutex, so worker threads executing on different SoCs never contend
// and counters are isolated per instance (no global performance state).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/artifact.hpp"
#include "hw/perf.hpp"

namespace htvm::serve {

class SocInstance {
 public:
  explicit SocInstance(int id, std::string kind = "diana")
      : id_(id), kind_(std::move(kind)) {}

  int id() const { return id_; }
  // SocDescription name of this instance's hardware generation.
  const std::string& kind() const { return kind_; }

  // Folds one completed inference of `artifact` into this instance's counters.
  void RecordRun(const compiler::Artifact& artifact);

  i64 inferences() const;
  i64 simulated_cycles() const;
  // Snapshot of the accumulated per-kernel counters.
  hw::RunProfile Profile() const;

 private:
  const int id_;
  const std::string kind_;
  mutable std::mutex mu_;
  i64 inferences_ = 0;
  i64 cycles_ = 0;
  hw::RunProfile aggregate_;
};

class SocFleet {
 public:
  // Homogeneous fleet of `size` "diana" instances.
  explicit SocFleet(int size);
  // Heterogeneous fleet: one instance per entry of `kinds`.
  explicit SocFleet(const std::vector<std::string>& kinds);

  int size() const { return static_cast<int>(socs_.size()); }
  SocInstance& at(int index) { return *socs_[static_cast<size_t>(index)]; }
  const SocInstance& at(int index) const {
    return *socs_[static_cast<size_t>(index)];
  }

 private:
  std::vector<std::unique_ptr<SocInstance>> socs_;
};

}  // namespace htvm::serve
