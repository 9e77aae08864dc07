// Deterministic fleet scheduler: the simulated-time core of the serving
// subsystem.
//
// Every model is priced up front: SetModelTiming registers its standalone
// service time and per-request batch saving on each SoC kind (HTVM's
// kernel cycles are fixed at compile time, so a request's service time
// belongs to its (model, SoC kind) pair). Requests are then offered in
// arrival order (the open-loop trace is sorted). The scheduler keeps one
// simulated free-at timestamp per SoC and a bounded FIFO of
// admitted-but-undispatched requests. Offering a request first dispatches
// every batch whose simulated start precedes the new arrival, then applies
// admission control: if the FIFO is at capacity the request is rejected
// (the caller surfaces a typed ResourceExhausted status).
//
// Dispatch pops from the FIFO head onto a *live* SoC picked by the
// placement policy — by default the SoC whose kind predicts the earliest
// completion for the request's model (PlacementPolicy::kModelAware; on a
// homogeneous fleet this is exactly the earliest-free SoC). Consecutive
// same-model requests that have already arrived by the batch's start time
// coalesce into one micro-batch (up to `max_batch`); every request after
// the first costs its kind's service time minus the batch saving. The
// batch is priced from the timing table of the SoC that finally runs it.
//
// Fault handling (when SchedulerOptions::faults is set): each batch is
// simulated attempt by attempt against the fault plan. An attempt that
// starts on a crashed SoC, is interrupted by a crash, or lands in a
// transient-error window fails; the batch then retries with exponential
// backoff on the same SoC and re-dispatches to a surviving SoC after the
// per-SoC retry budget is exhausted (or immediately, on a crash). A
// circuit breaker evicts a SoC after 4 consecutive failures so a flapping
// instance stops absorbing retries. The retry constants (scheduler.cpp): a
// fault is detected 20 us after it strikes, the first backoff is 50 us and
// doubles per retry, and a batch re-dispatches after 3 failed attempts on
// one SoC. Every failed attempt is recorded on the batch so the worker pool
// can replay it through Executor::Run and observe the same injected fault
// as a typed Status. A request is lost only when no SoC that can run it
// survives.
//
// Because all decisions happen at Offer/Flush time on the simulated clock,
// request latencies (batch done_us - arrival_us), rejections, retries,
// evictions and per-SoC busy time are a pure function of the trace and the
// fault seed — worker threads then execute the dispatched batches for real
// (bit-exact tensor compute) without influencing the metrics.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "hw/fault.hpp"
#include "serve/request.hpp"

namespace htvm::serve {

enum class SocHealth : u8 { kHealthy, kDegraded, kDead };
const char* SocHealthName(SocHealth health);

// How a dispatching batch picks its SoC.
//
//   kModelAware   minimize predicted completion (max(free, arrival) +
//                 per-(model, SoC-kind) service time), breaking ties by
//                 earlier free time then lower index. For a homogeneous
//                 fleet this reduces exactly to the earliest-free live SoC.
//   kRoundRobin   cycle through live SoCs regardless of predicted latency
//                 (the baseline bench_serving --check compares against).
enum class PlacementPolicy : u8 { kModelAware, kRoundRobin };
const char* PlacementPolicyName(PlacementPolicy policy);

// Per-SoC health as observed by the scheduler. `kDegraded` is sticky: a SoC
// that ever absorbed a fault (and survived) stays marked for the final
// report even when later attempts succeed.
struct SocHealthState {
  SocHealth health = SocHealth::kHealthy;
  i64 failures = 0;              // failed attempts observed on this SoC
  int consecutive_failures = 0;  // circuit-breaker window
  bool crashed = false;          // dead via injected crash
  bool evicted = false;          // dead via circuit breaker
  double died_us = 0;            // simulated death time (dead only)
};

struct SchedulerOptions {
  int fleet_size = 1;
  int queue_capacity = 64;  // admitted-but-undispatched bound
  int max_batch = 1;        // 1 = micro-batching off
  const hw::FaultInjector* faults = nullptr;  // nullptr = no injection
  // SoC kind (SocDescription name) per fleet index. Empty = homogeneous
  // "diana" fleet; otherwise must have exactly fleet_size entries.
  std::vector<std::string> soc_kinds;
  PlacementPolicy placement = PlacementPolicy::kModelAware;
};

// One failed execution attempt of a batch, kept so the worker pool can
// replay it through Executor::Run (which consults the same fault plan and
// fails with the same injected fault).
struct BatchAttempt {
  int soc = 0;
  double start_us = 0;
  double end_us = 0;  // planned completion (crash) or detection time
  hw::FaultKind cause = hw::FaultKind::kTransient;
};

struct ScheduledBatch {
  int soc = 0;  // SoC of the final, successful attempt
  int model = 0;
  double start_us = 0;  // final attempt start on `soc`
  double done_us = 0;   // completion (each request's latency = done - arrival)
  std::vector<InferRequest> requests;
  std::vector<BatchAttempt> failed_attempts;
};

class FleetScheduler {
 public:
  explicit FleetScheduler(SchedulerOptions options);

  // Offers a request whose model was registered with SetModelTiming
  // (checked). Batches whose simulated start is at or before
  // `request.arrival_us` are appended to `*dispatched`. Returns false when
  // admission control rejects the request (pending FIFO full). Arrivals
  // must be offered in non-decreasing order.
  bool Offer(const InferRequest& request,
             std::vector<ScheduledBatch>* dispatched);

  // Registers the predicted timing of `model` on every fleet member of
  // `soc_kind` (at least one must exist): `service_us` is one request's
  // standalone service time, `batch_saving_us` the dispatch overhead a
  // request sheds when it coalesces behind a same-model request. Fleet
  // members of kinds never registered for this model cannot run it and are
  // skipped by placement. Must be called before the model's first Offer.
  void SetModelTiming(int model, const std::string& soc_kind,
                      double service_us, double batch_saving_us);
  bool HasModelTiming(int model) const;
  // Predicted standalone service time of a registered `model` on fleet
  // index `soc`; negative when the model is unavailable there. The
  // placement property test recomputes the argmin from these.
  double PredictedServiceUs(int model, int soc) const;
  // Resolved per-index SoC kinds (fleet_size entries).
  const std::vector<std::string>& soc_kinds() const { return kinds_; }

  // Dispatches everything still pending (end of trace). Requests that
  // cannot run because the whole fleet died are counted as lost.
  std::vector<ScheduledBatch> Flush();

  // --- statistics over the whole run (valid after Flush) ---
  i64 offered() const { return offered_; }
  i64 admitted() const { return admitted_; }
  i64 rejected() const { return rejected_; }
  i64 batches() const { return batches_; }
  i64 max_batch_size() const { return max_batch_size_; }
  i64 max_queue_depth() const { return max_queue_depth_; }
  // Mean pending-FIFO depth sampled right after each admitted arrival.
  double MeanQueueDepth() const;
  // Simulated time the last batch completes.
  double makespan_us() const { return makespan_us_; }
  const std::vector<double>& soc_busy_us() const { return soc_busy_us_; }

  // --- fault-handling statistics ---
  i64 retries() const { return retries_; }            // failed attempts
  i64 redispatches() const { return redispatches_; }  // SoC switches
  i64 evictions() const { return evictions_; }        // breaker evictions
  i64 crashes() const { return crashes_; }            // discovered crashes
  i64 lost() const { return lost_; }                  // whole fleet dead
  const std::vector<SocHealthState>& soc_health() const { return health_; }

 private:
  void DispatchUpTo(double now_us, std::vector<ScheduledBatch>* out);
  // Simulates the batch's attempts against the fault plan starting on
  // `soc` at `start_us`; the batch is re-priced from the timing table on
  // every re-dispatch (a different SoC kind changes its service time).
  // Fills the batch's final soc/start/done and its failed-attempt log.
  // Returns false when no SoC that can run the batch survived (the batch's
  // requests are lost).
  bool SimulateAttempts(ScheduledBatch* batch, int soc, double start_us);
  // Placement for the batch headed by `model` arriving at `arrival_us`:
  // fleet index, or -1 when the whole fleet is dead, or -2 when live SoCs
  // exist but none of their kinds has the model.
  int ChooseSoc(int model, double arrival_us);
  // Re-placement after a failure: model-aware when that policy is active,
  // earliest-free otherwise (a retry never consumes the round-robin
  // rotation). Same return convention as ChooseSoc.
  int ChooseSocForRedispatch(int model, double not_before_us) const;
  // Whether fleet index `soc`'s kind can run `model`.
  bool AvailableOn(int model, int soc) const;
  // Coalesced service time of an n-request batch of `model` on `soc`.
  double BatchTotalUs(int model, int soc, int n) const;
  bool Dead(int soc) const {
    return health_[static_cast<size_t>(soc)].health == SocHealth::kDead;
  }
  void Occupy(int soc, double from_us, double to_us);
  void MarkCrashed(int soc, double t_us);
  void MarkDegraded(int soc);
  // Counts a transient failure; trips the circuit breaker at the threshold.
  void RecordFailure(int soc, double t_us);

  struct TimingEntry {
    double service_us = -1;  // negative = model unavailable on this SoC
    double saving_us = 0;
  };

  SchedulerOptions options_;
  std::vector<std::string> kinds_;  // per fleet index, resolved
  // timing_[model] has one entry per fleet index once SetModelTiming has
  // registered the model, and is empty before.
  std::vector<std::vector<TimingEntry>> timing_;
  int rr_cursor_ = 0;  // next round-robin fleet index
  std::vector<double> soc_free_us_;
  std::vector<double> soc_busy_us_;
  std::vector<SocHealthState> health_;
  std::deque<InferRequest> pending_;
  double last_arrival_us_ = 0;
  double makespan_us_ = 0;
  i64 offered_ = 0;
  i64 admitted_ = 0;
  i64 rejected_ = 0;
  i64 batches_ = 0;
  i64 max_batch_size_ = 0;
  i64 max_queue_depth_ = 0;
  double depth_sum_ = 0;
  i64 depth_samples_ = 0;
  i64 retries_ = 0;
  i64 redispatches_ = 0;
  i64 evictions_ = 0;
  i64 crashes_ = 0;
  i64 lost_ = 0;
};

}  // namespace htvm::serve
