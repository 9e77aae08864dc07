#include "hw/fault.hpp"

#include <algorithm>
#include <cmath>

#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace htvm::hw {
namespace {

constexpr double kTransientWindowUs = 200.0;
constexpr double kSlowdownFactor = 4.0;
constexpr double kSlowWindowFrac = 0.25;  // spike length / horizon

}  // namespace

FaultInjector::FaultInjector(int fleet_size, std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  HTVM_CHECK(fleet_size > 0);
  Index(fleet_size);
}

void FaultInjector::Index(int fleet_size) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_us != b.at_us) return a.at_us < b.at_us;
                     return a.soc < b.soc;
                   });
  socs_.assign(static_cast<size_t>(fleet_size), PerSoc{});
  for (const FaultEvent& e : events_) {
    HTVM_CHECK(e.soc >= 0 && e.soc < fleet_size);
    PerSoc& s = socs_[static_cast<size_t>(e.soc)];
    switch (e.kind) {
      case FaultKind::kCrash:
        s.crash_us = std::min(s.crash_us, e.at_us);
        break;
      case FaultKind::kTransient:
        s.transients.push_back(e);
        break;
      case FaultKind::kSlowdown:
        s.slowdowns.push_back(e);
        break;
    }
  }
}

FaultInjector FaultInjector::Generate(const FaultPlanOptions& opt, u64 seed) {
  HTVM_CHECK(opt.fleet_size > 0);
  HTVM_CHECK(opt.horizon_us > 0);
  Rng rng(seed ^ 0xFA17FA17FA17FA17ull);
  std::vector<FaultEvent> events;

  // Crashes: a random distinct subset of the fleet, each failing somewhere
  // in the middle half of the horizon ("mid-run").
  std::vector<int> order(static_cast<size_t>(opt.fleet_size));
  for (int i = 0; i < opt.fleet_size; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = opt.fleet_size - 1; i > 0; --i) {
    const i64 j = rng.UniformInt(0, i);
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  const int crashes = static_cast<int>(
      std::llround(opt.crash_fraction * static_cast<double>(opt.fleet_size)));
  for (int i = 0; i < std::min(crashes, opt.fleet_size); ++i) {
    FaultEvent e;
    e.soc = order[static_cast<size_t>(i)];
    e.kind = FaultKind::kCrash;
    e.at_us = (0.25 + 0.5 * rng.UniformDouble()) * opt.horizon_us;
    events.push_back(e);
  }

  // Transient windows: Poisson arrivals per SoC at transient_rate_hz.
  if (opt.transient_rate_hz > 0) {
    const double mean_gap_us = 1e6 / opt.transient_rate_hz;
    for (int soc = 0; soc < opt.fleet_size; ++soc) {
      double t = 0;
      for (;;) {
        const double u = rng.UniformDouble();
        t += -mean_gap_us * std::log(1.0 - u);
        if (t >= opt.horizon_us) break;
        FaultEvent e;
        e.soc = soc;
        e.kind = FaultKind::kTransient;
        e.at_us = t;
        e.duration_us = kTransientWindowUs;
        events.push_back(e);
      }
    }
  }

  // Slowdown windows: another random subset (may overlap the crash set —
  // a SoC can throttle before it dies).
  for (int i = opt.fleet_size - 1; i > 0; --i) {
    const i64 j = rng.UniformInt(0, i);
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  const int slows = static_cast<int>(
      std::llround(opt.slow_fraction * static_cast<double>(opt.fleet_size)));
  for (int i = 0; i < std::min(slows, opt.fleet_size); ++i) {
    FaultEvent e;
    e.soc = order[static_cast<size_t>(i)];
    e.kind = FaultKind::kSlowdown;
    e.duration_us = kSlowWindowFrac * opt.horizon_us;
    e.at_us = rng.UniformDouble() * (opt.horizon_us - e.duration_us);
    e.magnitude = kSlowdownFactor;
    events.push_back(e);
  }

  FaultInjector fi;
  fi.events_ = std::move(events);
  fi.Index(opt.fleet_size);
  return fi;
}

double FaultInjector::CrashTimeUs(int soc) const {
  if (soc < 0 || soc >= fleet_size()) {
    return std::numeric_limits<double>::infinity();
  }
  return socs_[static_cast<size_t>(soc)].crash_us;
}

bool FaultInjector::CrashedBy(int soc, double t_us) const {
  return CrashTimeUs(soc) <= t_us;
}

bool FaultInjector::TransientAt(int soc, double t_us) const {
  if (soc < 0 || soc >= fleet_size()) return false;
  for (const FaultEvent& e : socs_[static_cast<size_t>(soc)].transients) {
    if (e.at_us > t_us) break;  // sorted; later windows cannot cover t
    if (t_us < e.at_us + e.duration_us) return true;
  }
  return false;
}

double FaultInjector::SlowdownAt(int soc, double t_us) const {
  if (soc < 0 || soc >= fleet_size()) return 1.0;
  double factor = 1.0;
  for (const FaultEvent& e : socs_[static_cast<size_t>(soc)].slowdowns) {
    if (e.at_us > t_us) break;
    if (t_us < e.at_us + e.duration_us) factor = std::max(factor, e.magnitude);
  }
  return factor;
}

std::string FaultInjector::Summary() const {
  i64 crashes = 0, transients = 0, slows = 0;
  for (const FaultEvent& e : events_) {
    switch (e.kind) {
      case FaultKind::kCrash:
        ++crashes;
        break;
      case FaultKind::kTransient:
        ++transients;
        break;
      case FaultKind::kSlowdown:
        ++slows;
        break;
    }
  }
  return StrFormat("%lld crashes, %lld transient windows, %lld slowdowns "
                   "over %d SoCs",
                   static_cast<long long>(crashes),
                   static_cast<long long>(transients),
                   static_cast<long long>(slows), fleet_size());
}

}  // namespace htvm::hw
