// Deterministic fault-injection decorator: wraps any Network and perturbs
// traffic according to a FaultPlan — message drop, duplication, extra delay
// (which reorders messages relative to later sends), and fail-stop NICs —
// driven by its own seeded sim::Rng so every chaos run is bit-for-bit
// reproducible and independent of workload RNG draws.
//
// Only kRuntime traffic is ever faulted: the coherence protocol models a
// hardware network with link-level retry, while the software runtime layer
// must survive an unreliable interconnect via core::ReliableTransport. A
// dropped message wakes nothing; a duplicated or delayed one is its wake
// sent again. So every wake on traffic a plan can fault must be re-runnable
// and outlive every copy in flight, as the reliable transport's and ft's
// records are: a coroutine handle would be resumed after it finished. The
// coherence protocol's wakes are neither, so its traffic is exempt by
// construction and shared memory runs under any plan.
//
// With an inactive plan (all rates zero, no overrides, no NIC failures) the
// decorator forwards every message untouched and draws no random numbers, so
// wrapping is behaviour-preserving; workloads skip the wrapper entirely in
// that case to keep fault-free runs bit-identical to the pre-fault system.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "net/network.h"
#include "sim/engine.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace cm::net {

/// Per-link fault probabilities, each in [0, 1].
struct FaultRates {
  double drop = 0.0;       // message vanishes in flight
  double duplicate = 0.0;  // a second copy is delivered later
  double delay = 0.0;      // message held back by a random extra delay

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0;
  }
};

struct FaultPlan {
  FaultRates rates;  // default for every (src, dst) link
  std::map<std::pair<sim::ProcId, sim::ProcId>, FaultRates> link_overrides;
  // Faults are injected only while now() is in [window_start, window_end);
  // the default window is all of time.
  sim::Cycles window_start = 0;
  sim::Cycles window_end = ~sim::Cycles{0};
  // Extra delay for delayed messages and duplicate copies is uniform in
  // [1, max_extra_delay] cycles.
  sim::Cycles max_extra_delay = 400;
  // Fail-stop: from the given cycle on, the processor's NIC silently eats
  // every message it would send or receive.
  std::map<sim::ProcId, sim::Cycles> nic_fail_at;
  std::uint64_t seed = 0x5eedfa17;

  /// Whether this plan can ever perturb a message.
  [[nodiscard]] bool active() const noexcept {
    if (rates.any() || !nic_fail_at.empty()) return true;
    for (const auto& [link, r] : link_overrides) {
      if (r.any()) return true;
    }
    return false;
  }
};

class FaultyNetwork final : public Network {
 public:
  FaultyNetwork(sim::Engine& engine, Network& inner, FaultPlan plan)
      : engine_(&engine),
        inner_(&inner),
        plan_(std::move(plan)),
        rng_(plan_.seed) {}

  /// Loopback and coherence messages go to the inner network untouched;
  /// any other may be dropped, duplicated or delayed.
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            sim::Wake w) override;

  /// Timing queries see the fault-free network: faults change delivery, not
  /// the zero-load latency model.
  [[nodiscard]] sim::Cycles latency(sim::ProcId src, sim::ProcId dst,
                                    unsigned words) const override {
    return inner_->latency(src, dst, words);
  }

  /// The wrapped network's traffic counters with this layer's fault
  /// counters merged in.
  [[nodiscard]] const NetStats& stats() const noexcept override;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  [[nodiscard]] const FaultRates& rates_for(sim::ProcId src,
                                            sim::ProcId dst) const;
  [[nodiscard]] bool nic_dead(sim::ProcId p) const noexcept;

  /// A duplicated or delayed copy on its way to the inner network: it runs
  /// once, `extra` cycles after the send, and goes back to the pool.
  struct Deferred : sim::Continuation {
    FaultyNetwork* net = nullptr;
    Deferred* next_free = nullptr;
    sim::ProcId src;
    sim::ProcId dst;
    unsigned words;
    Traffic kind;
    sim::Wake wake = std::coroutine_handle<>();

    static void send_on(sim::Continuation* c);
  };

  sim::Engine* engine_;
  Network* inner_;
  FaultPlan plan_;
  sim::Rng rng_;
  NetStats faults_;          // only the faults_* counters are ever touched
  mutable NetStats merged_;  // snapshot storage for stats()
  std::deque<Deferred> deferred_;  // every record made; freed with the layer
  Deferred* free_ = nullptr;       // records not in flight
};

}  // namespace cm::net
