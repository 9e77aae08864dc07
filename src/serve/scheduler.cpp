#include "serve/scheduler.hpp"

#include <algorithm>
#include <limits>

namespace htvm::serve {
namespace {

// Graceful degradation of faulted attempts. Every delay is positive, so the
// attempt loop always advances the simulated clock.
constexpr int kMaxAttemptsPerSoc = 3;       // transient tries, then re-dispatch
constexpr double kDetectUs = 20.0;          // fault detection (DMA timeout)
constexpr double kBackoffBaseUs = 50.0;     // first retry delay
constexpr double kBackoffMultiplier = 2.0;  // exponential backoff growth
constexpr int kBreakerThreshold = 4;        // consecutive failures, then evict

}  // namespace

const char* SocHealthName(SocHealth health) {
  switch (health) {
    case SocHealth::kHealthy:
      return "healthy";
    case SocHealth::kDegraded:
      return "degraded";
    case SocHealth::kDead:
      return "dead";
  }
  return "?";
}

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kModelAware:
      return "model-aware";
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

FleetScheduler::FleetScheduler(SchedulerOptions options)
    : options_(options),
      kinds_(options.soc_kinds),
      soc_free_us_(static_cast<size_t>(options.fleet_size), 0.0),
      soc_busy_us_(static_cast<size_t>(options.fleet_size), 0.0),
      health_(static_cast<size_t>(options.fleet_size)) {
  HTVM_CHECK(options_.fleet_size > 0);
  HTVM_CHECK(options_.queue_capacity > 0);
  HTVM_CHECK(options_.max_batch > 0);
  if (kinds_.empty()) {
    kinds_.assign(static_cast<size_t>(options_.fleet_size), "diana");
  }
  HTVM_CHECK_MSG(static_cast<int>(kinds_.size()) == options_.fleet_size,
                 "soc_kinds must have one entry per fleet member");
}

void FleetScheduler::SetModelTiming(int model, const std::string& soc_kind,
                                    double service_us,
                                    double batch_saving_us) {
  HTVM_CHECK(model >= 0);
  if (static_cast<size_t>(model) >= timing_.size()) {
    timing_.resize(static_cast<size_t>(model) + 1);
  }
  std::vector<TimingEntry>& entries = timing_[static_cast<size_t>(model)];
  if (entries.empty()) {
    entries.resize(static_cast<size_t>(options_.fleet_size));
  }
  bool matched = false;
  for (int s = 0; s < options_.fleet_size; ++s) {
    if (kinds_[static_cast<size_t>(s)] != soc_kind) continue;
    entries[static_cast<size_t>(s)] = TimingEntry{service_us, batch_saving_us};
    matched = true;
  }
  HTVM_CHECK_MSG(matched, "SetModelTiming: no fleet member of that SoC kind");
}

bool FleetScheduler::HasModelTiming(int model) const {
  return model >= 0 && static_cast<size_t>(model) < timing_.size() &&
         !timing_[static_cast<size_t>(model)].empty();
}

double FleetScheduler::PredictedServiceUs(int model, int soc) const {
  HTVM_CHECK(HasModelTiming(model));
  return timing_[static_cast<size_t>(model)][static_cast<size_t>(soc)]
      .service_us;
}

bool FleetScheduler::AvailableOn(int model, int soc) const {
  return PredictedServiceUs(model, soc) >= 0;
}

double FleetScheduler::BatchTotalUs(int model, int soc, int n) const {
  const TimingEntry& t =
      timing_[static_cast<size_t>(model)][static_cast<size_t>(soc)];
  return t.service_us +
         static_cast<double>(n - 1) *
             std::max(0.0, t.service_us - t.saving_us);
}

int FleetScheduler::ChooseSoc(int model, double arrival_us) {
  if (options_.placement == PlacementPolicy::kRoundRobin) {
    bool any_live = false;
    for (int i = 0; i < options_.fleet_size; ++i) {
      const int s = (rr_cursor_ + i) % options_.fleet_size;
      if (Dead(s)) continue;
      any_live = true;
      if (!AvailableOn(model, s)) continue;
      rr_cursor_ = (s + 1) % options_.fleet_size;
      return s;
    }
    return any_live ? -2 : -1;
  }
  return ChooseSocForRedispatch(model, arrival_us);
}

int FleetScheduler::ChooseSocForRedispatch(int model,
                                           double not_before_us) const {
  bool any_live = false;
  int best = -1;
  if (options_.placement == PlacementPolicy::kModelAware) {
    // Minimize predicted completion (max(free, ready) + per-kind service);
    // tie-break on earlier free time, then lower index. With uniform
    // per-kind timing this reduces exactly to the earliest-free branch
    // below, which the serve determinism tests pin down.
    double best_completion = 0;
    double best_free = 0;
    for (int s = 0; s < options_.fleet_size; ++s) {
      if (Dead(s)) continue;
      any_live = true;
      const double service = PredictedServiceUs(model, s);
      if (service < 0) continue;
      const double free = soc_free_us_[static_cast<size_t>(s)];
      const double completion = std::max(free, not_before_us) + service;
      if (best < 0 || completion < best_completion ||
          (completion == best_completion && free < best_free)) {
        best = s;
        best_completion = completion;
        best_free = free;
      }
    }
    return best >= 0 ? best : (any_live ? -2 : -1);
  }
  // Earliest-free among live SoCs with the model; a retry never consumes
  // the round-robin rotation.
  for (int s = 0; s < options_.fleet_size; ++s) {
    if (Dead(s)) continue;
    any_live = true;
    if (!AvailableOn(model, s)) continue;
    if (best < 0 || soc_free_us_[static_cast<size_t>(s)] <
                        soc_free_us_[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  return best >= 0 ? best : (any_live ? -2 : -1);
}

void FleetScheduler::Occupy(int soc, double from_us, double to_us) {
  soc_busy_us_[static_cast<size_t>(soc)] += to_us - from_us;
  soc_free_us_[static_cast<size_t>(soc)] = to_us;
}

void FleetScheduler::MarkCrashed(int soc, double t_us) {
  SocHealthState& h = health_[static_cast<size_t>(soc)];
  if (h.health == SocHealth::kDead) return;
  h.health = SocHealth::kDead;
  h.crashed = true;
  h.died_us = t_us;
  ++crashes_;
}

void FleetScheduler::MarkDegraded(int soc) {
  SocHealthState& h = health_[static_cast<size_t>(soc)];
  if (h.health == SocHealth::kHealthy) h.health = SocHealth::kDegraded;
}

void FleetScheduler::RecordFailure(int soc, double t_us) {
  SocHealthState& h = health_[static_cast<size_t>(soc)];
  ++h.failures;
  ++h.consecutive_failures;
  MarkDegraded(soc);
  if (h.consecutive_failures >= kBreakerThreshold &&
      h.health != SocHealth::kDead) {
    h.health = SocHealth::kDead;
    h.evicted = true;
    h.died_us = t_us;
    ++evictions_;
  }
}

bool FleetScheduler::SimulateAttempts(ScheduledBatch* batch, int soc,
                                      double start_us) {
  const hw::FaultInjector* fi = options_.faults;
  const int n = static_cast<int>(batch->requests.size());
  int attempts_on_soc = 0;
  double backoff = kBackoffBaseUs;
  double service_us = BatchTotalUs(batch->model, soc, n);

  // Moves the batch to a surviving SoC picked by the placement policy, not
  // before `not_before_us`, and re-prices it for the new SoC kind. Returns
  // false when no surviving SoC can run the batch.
  const auto redispatch = [&](double not_before_us) {
    const int next = ChooseSocForRedispatch(batch->model, not_before_us);
    if (next < 0) return false;
    if (next != soc) ++redispatches_;
    soc = next;
    attempts_on_soc = 0;
    backoff = kBackoffBaseUs;
    start_us = std::max(soc_free_us_[static_cast<size_t>(soc)], not_before_us);
    service_us = BatchTotalUs(batch->model, soc, n);
    return true;
  };

  for (;;) {
    if (fi != nullptr && fi->CrashedBy(soc, start_us)) {
      // Dead at dispatch: the runtime call times out after kDetectUs.
      MarkCrashed(soc, std::min(start_us, fi->CrashTimeUs(soc)));
      batch->failed_attempts.push_back(BatchAttempt{
          soc, start_us, start_us + kDetectUs, hw::FaultKind::kCrash});
      ++retries_;
      if (!redispatch(start_us + kDetectUs)) return false;
      continue;
    }
    const double factor = fi != nullptr ? fi->SlowdownAt(soc, start_us) : 1.0;
    if (factor > 1.0) MarkDegraded(soc);
    const double service = service_us * factor;
    if (fi != nullptr && fi->CrashedBy(soc, start_us + service)) {
      // The SoC dies mid-run; the attempt is wasted up to the crash point.
      const double crash_us = std::max(start_us, fi->CrashTimeUs(soc));
      Occupy(soc, start_us, crash_us);
      MarkCrashed(soc, crash_us);
      batch->failed_attempts.push_back(BatchAttempt{
          soc, start_us, start_us + service, hw::FaultKind::kCrash});
      ++retries_;
      if (!redispatch(crash_us + kDetectUs)) return false;
      continue;
    }
    if (fi != nullptr && fi->TransientAt(soc, start_us)) {
      const double fail_us = start_us + kDetectUs;
      Occupy(soc, start_us, fail_us);
      batch->failed_attempts.push_back(
          BatchAttempt{soc, start_us, fail_us, hw::FaultKind::kTransient});
      ++retries_;
      RecordFailure(soc, fail_us);
      ++attempts_on_soc;
      if (Dead(soc) || attempts_on_soc >= kMaxAttemptsPerSoc) {
        if (!redispatch(fail_us)) return false;
      } else {
        // Exponential backoff on the same SoC walks the retry past the
        // transient window deterministically.
        start_us =
            std::max(soc_free_us_[static_cast<size_t>(soc)], fail_us + backoff);
        backoff *= kBackoffMultiplier;
      }
      continue;
    }
    // Healthy attempt: the batch completes here.
    health_[static_cast<size_t>(soc)].consecutive_failures = 0;
    const double done = start_us + service;
    Occupy(soc, start_us, done);
    batch->soc = soc;
    batch->start_us = start_us;
    batch->done_us = done;
    return true;
  }
}

void FleetScheduler::DispatchUpTo(double now_us,
                                  std::vector<ScheduledBatch>* out) {
  while (!pending_.empty()) {
    const int model = pending_.front().model;
    const double arrival = pending_.front().arrival_us;
    const int soc = ChooseSoc(model, arrival);
    if (soc == -1) return;  // whole fleet dead; Flush accounts the losses
    if (soc == -2) {
      // Live SoCs exist, but none of their kinds has this model — the
      // request can never run (counted as lost, like a fleet-death strand,
      // never silently dropped).
      ++lost_;
      pending_.pop_front();
      continue;
    }
    const double start =
        std::max(soc_free_us_[static_cast<size_t>(soc)], arrival);
    if (start > now_us) break;

    ScheduledBatch batch;
    batch.model = model;
    while (!pending_.empty() &&
           static_cast<int>(batch.requests.size()) < options_.max_batch &&
           pending_.front().model == batch.model &&
           pending_.front().arrival_us <= start) {
      batch.requests.push_back(pending_.front());
      pending_.pop_front();
    }

    if (!SimulateAttempts(&batch, soc, start)) {
      // Every SoC that could run the batch died while it was retrying: the
      // requests are lost (counted, never silently dropped) and nothing
      // else of this model can dispatch.
      lost_ += static_cast<i64>(batch.requests.size());
      return;
    }

    makespan_us_ = std::max(makespan_us_, batch.done_us);
    batches_ += 1;
    max_batch_size_ =
        std::max(max_batch_size_, static_cast<i64>(batch.requests.size()));
    out->push_back(std::move(batch));
  }
}

bool FleetScheduler::Offer(const InferRequest& request,
                           std::vector<ScheduledBatch>* dispatched) {
  HTVM_CHECK_MSG(HasModelTiming(request.model),
                 "Offer without SetModelTiming for this model");
  HTVM_CHECK_MSG(request.arrival_us >= last_arrival_us_,
                 "trace arrivals must be offered in order");
  last_arrival_us_ = request.arrival_us;
  ++offered_;

  DispatchUpTo(request.arrival_us, dispatched);
  if (static_cast<i64>(pending_.size()) >= options_.queue_capacity) {
    ++rejected_;
    return false;
  }
  pending_.push_back(request);
  ++admitted_;
  max_queue_depth_ =
      std::max(max_queue_depth_, static_cast<i64>(pending_.size()));
  depth_sum_ += static_cast<double>(pending_.size());
  ++depth_samples_;
  return true;
}

std::vector<ScheduledBatch> FleetScheduler::Flush() {
  std::vector<ScheduledBatch> out;
  DispatchUpTo(std::numeric_limits<double>::infinity(), &out);
  if (!pending_.empty()) {
    // Only reachable when the whole fleet died: account every stranded
    // admitted request as lost rather than dropping it silently.
    lost_ += static_cast<i64>(pending_.size());
    pending_.clear();
  }
  return out;
}

double FleetScheduler::MeanQueueDepth() const {
  return depth_samples_ > 0 ? depth_sum_ / static_cast<double>(depth_samples_)
                            : 0.0;
}

}  // namespace htvm::serve
