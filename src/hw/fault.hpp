// Seeded fault injection for the simulated DIANA fleet.
//
// A FaultInjector holds a *plan* — a fixed list of fault events generated
// once from a seed (or handed in explicitly by tests) — and answers pure
// queries against it: "is this SoC dead at simulated time t?", "does an
// attempt started at t hit a transient DMA/accelerator error?", "how much
// slower is this SoC at t?". Because the plan is data and every query is a
// pure function of (soc, t) on the simulated clock, chaos runs are exactly
// reproducible from the seed: the scheduler decides retries/re-dispatches
// from the same queries the runtime uses to fail the corresponding
// Executor::Run attempts.
//
// Fault model (MATCHA-style independent degradation of compute units):
//   kCrash     — the SoC dies permanently at `at_us` (fail-stop)
//   kTransient — attempts *started* inside [at_us, at_us + duration_us)
//                fail with a typed Unavailable status (DMA timeout,
//                accelerator hang); the SoC survives and later attempts
//                succeed
//   kSlowdown  — service time on the SoC is multiplied by `magnitude`
//                inside the window (thermal throttling, contended L2)
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace htvm::hw {

enum class FaultKind : u8 { kCrash, kTransient, kSlowdown };

struct FaultEvent {
  int soc = 0;
  FaultKind kind = FaultKind::kTransient;
  double at_us = 0;        // window start; crash point for kCrash
  double duration_us = 0;  // window length (ignored for kCrash)
  double magnitude = 1.0;  // service-time multiplier (kSlowdown only)
};

// Knobs for generating a plan from a seed. Fractions are of the fleet;
// rates are per SoC-second of simulated time. Every transient window lasts
// 200 us; every slowdown multiplies service time by 4 for a quarter of the
// horizon (constants in fault.cpp).
struct FaultPlanOptions {
  int fleet_size = 1;
  double horizon_us = 1e6;         // trace horizon faults are placed in
  double crash_fraction = 0.0;     // SoCs that fail-stop mid-run
  double transient_rate_hz = 0.0;  // mean transient windows per SoC-second
  double slow_fraction = 0.0;      // SoCs that get one latency-spike window
};

class FaultInjector {
 public:
  FaultInjector() = default;  // empty plan: never faults

  // Explicit plan, for tests that need hand-placed faults.
  FaultInjector(int fleet_size, std::vector<FaultEvent> events);

  // Deterministic plan from the seed: crashes land on distinct SoCs in the
  // middle half of the horizon, transient windows arrive as a Poisson
  // process per SoC, slowdown windows land on a random subset.
  static FaultInjector Generate(const FaultPlanOptions& options, u64 seed);

  int fleet_size() const { return static_cast<int>(socs_.size()); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Simulated crash time of `soc`; +infinity when it never crashes.
  double CrashTimeUs(int soc) const;
  // True once the SoC's crash time has been reached (crash_us <= t).
  bool CrashedBy(int soc, double t_us) const;
  // True when an attempt *started* at t lands in a transient-error window.
  bool TransientAt(int soc, double t_us) const;
  // Service-time multiplier at t (1.0 outside every slowdown window).
  double SlowdownAt(int soc, double t_us) const;

  // "3 crashes, 12 transient windows, 2 slowdowns over 8 SoCs".
  std::string Summary() const;

 private:
  struct PerSoc {
    double crash_us = std::numeric_limits<double>::infinity();
    std::vector<FaultEvent> transients;  // sorted by at_us
    std::vector<FaultEvent> slowdowns;   // sorted by at_us
  };

  void Index(int fleet_size);

  std::vector<FaultEvent> events_;  // the full plan, sorted for display
  std::vector<PerSoc> socs_;
};

}  // namespace htvm::hw
