// Deterministic fault-injection decorator: wraps any Network and perturbs
// traffic according to a FaultPlan — message drop, duplication, extra delay
// (which reorders messages relative to later sends), and fail-stop NICs —
// driven by its own seeded sim::Rng so every chaos run is bit-for-bit
// reproducible and independent of workload RNG draws.
//
// By default only kRuntime traffic is faulted: the coherence protocol models
// a hardware network with link-level retry, while the software runtime layer
// must survive an unreliable interconnect via core::ReliableTransport. A
// duplicated message invokes its `deliver` callback twice — layers above
// must deduplicate (the reliable transport does). So never point a raw
// wake at traffic a plan can fault: `send_resume` wraps such a message in a
// closure, and its duplicate would resume a frame that has already finished
// (or rerun a Continuation that has moved on). For that reason the
// workload harness rejects shared memory under a plan that sets
// `affect_coherence`.
//
// With an inactive plan (all rates zero, no overrides, no NIC failures) the
// decorator forwards every message untouched and draws no random numbers, so
// wrapping is behaviour-preserving; workloads skip the wrapper entirely in
// that case to keep fault-free runs bit-identical to the pre-fault system.
#pragma once

#include <algorithm>
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
  bool affect_coherence = false;  // also fault kCoherence traffic
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

  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            std::function<void()> deliver) override;
  /// A message this plan can never fault goes to the inner network's
  /// `send_resume` untouched; any other is wrapped in a closure and sent.
  void send_resume(sim::ProcId src, sim::ProcId dst, unsigned words,
                   Traffic kind, sim::Wake w) override;

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
  /// Whether this plan may perturb the message: loopback never, coherence
  /// traffic only under `affect_coherence`.
  [[nodiscard]] bool faultable(sim::ProcId src, sim::ProcId dst,
                               Traffic kind) const noexcept;
  [[nodiscard]] const FaultRates& rates_for(sim::ProcId src,
                                            sim::ProcId dst) const;
  [[nodiscard]] bool in_window() const noexcept;
  [[nodiscard]] bool nic_dead(sim::ProcId p) const noexcept;

  sim::Engine* engine_;
  Network* inner_;
  FaultPlan plan_;
  sim::Rng rng_;
  NetStats faults_;          // only the faults_* counters are ever touched
  mutable NetStats merged_;  // snapshot storage for stats()
};

}  // namespace cm::net
