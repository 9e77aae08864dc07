#include "serve/soc_fleet.hpp"

namespace htvm::serve {

void SocInstance::RecordRun(const compiler::Artifact& artifact) {
  std::lock_guard<std::mutex> lock(mu_);
  ++inferences_;
  cycles_ += artifact.TotalFullCycles();
  aggregate_.Accumulate(artifact.Profile());
}

i64 SocInstance::inferences() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inferences_;
}

i64 SocInstance::simulated_cycles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycles_;
}

hw::RunProfile SocInstance::Profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregate_;
}

SocFleet::SocFleet(int size) {
  HTVM_CHECK(size > 0);
  socs_.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    socs_.push_back(std::make_unique<SocInstance>(i));
  }
}

SocFleet::SocFleet(const std::vector<std::string>& kinds) {
  HTVM_CHECK(!kinds.empty());
  socs_.reserve(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) {
    socs_.push_back(std::make_unique<SocInstance>(static_cast<int>(i), kinds[i]));
  }
}

}  // namespace htvm::serve
