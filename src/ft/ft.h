// Fail-stop crash tolerance: the ft::FtLayer is the repo's implementation of
// core::FaultTolerance. It is built from three deterministic pieces:
//
//  * FAILURE DETECTION — every processor heartbeats its `kMonitors` ring
//    successors each `heartbeat_interval` cycles (zero-CPU NIC keepalives).
//    A planned NIC death (net::FaultPlan::nic_fail_at) silently eats those
//    heartbeats, so the sender's lease expires after `lease_misses` silent
//    intervals and the detector publishes a permanent suspicion with its
//    failure epoch. Detection is conservative by construction: a live
//    processor is suspected only if every heartbeat of `lease_misses`
//    consecutive intervals is lost, which planned fail-stops guarantee and
//    random message loss makes vanishingly unlikely.
//
//  * CANCELLATION — Runtime and ReliableTransport consult the suspicion map
//    (and an optional per-send deadline) so no send, call or migration waits
//    unboundedly on a dead peer; see core/ft.h for the surface.
//
//  * RECOVERY — suspecting a processor enqueues every object homed there.
//    A detached recovery task re-homes each one: promote a valid
//    core::Replicated copy when one exists (the replica mirrors state the
//    NIC death could not touch), otherwise restore `kRestoreWords` from a
//    simulated backup onto a deterministic refuge — or, with
//    `rehome_unreplicated` off, condemn the object (ObjectLostError for all
//    later calls). Each commit flips ObjectSpace, patches the Locator's
//    directory/pointers/caches (loc::Locator::on_rehome) and resumes every
//    activation parked in await_object.
//
// Determinism: the detector's sweep wakes at fixed intervals, ring orders
// and object ids give every choice a deterministic scan order, and no
// random numbers are drawn — two same-seed runs crash, detect and recover
// bit-identically. With `enabled == false` the layer never installs itself
// and the run is byte-identical to a build without it.
//
// Known limitation (documented in DESIGN.md §11): monitors are ring
// successors, so `kMonitors` adjacent simultaneous crashes can expire the
// lease of the processor before them. `kMonitors` (2, ft.cc), the
// directory's `kDirReplicas` (2, loc/locator.cc) and
// `FtConfig::lease_misses` (3) are constants. Crash plans in the benches
// use non-adjacent victims; to tolerate k adjacent crashes, raise
// `kMonitors` above k.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/ft.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "loc/locator.h"
#include "net/faulty_net.h"
#include "sim/task.h"
#include "sim/types.h"

namespace cm::ft {

using core::ObjectId;
using sim::Cycles;
using sim::ProcId;

struct FtConfig {
  bool enabled = false;  // inert (and never installed) unless set

  // Failure detector.
  Cycles heartbeat_interval = 2000;  // sweep period, in cycles
  static constexpr unsigned lease_misses = 3;  // silent intervals to suspect

  // Recovery.
  bool rehome_unreplicated = true;  // restore from backup vs. declare lost

  // Cancellation policy (see core::FaultTolerance).
  Cycles send_deadline = 0;        // relative per-send deadline; 0 = none
  unsigned max_call_retries = 64;  // call re-issues before FtError
};

struct FtStats {
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t leases_renewed = 0;
  std::uint64_t suspicions = 0;         // processors declared dead
  std::uint64_t detected = 0;           // ... matching a planned fail-stop
  std::uint64_t planned_failures = 0;   // fail-stops announced via note_plan
  std::uint64_t detect_latency_sum = 0; // fail cycle -> suspicion, summed
  std::uint64_t rehomes = 0;            // backup restores committed
  std::uint64_t replica_promotions = 0; // recoveries served by a live replica
  std::uint64_t objects_lost = 0;       // condemned (no replica, no restore)
  std::uint64_t recoveries = 0;         // committed re-homes (both kinds)
  std::uint64_t rehome_latency_sum = 0; // suspicion -> commit, summed

  /// Mean cycles from a planned NIC death to its suspicion.
  [[nodiscard]] double mean_detect_latency() const {
    return detected == 0
               ? 0.0
               : static_cast<double>(detect_latency_sum) / detected;
  }
  /// Mean cycles from suspicion to a committed re-home.
  [[nodiscard]] double mean_rehome_latency() const {
    return recoveries == 0
               ? 0.0
               : static_cast<double>(rehome_latency_sum) / recoveries;
  }
};

class FtLayer final : public core::FaultTolerance {
 public:
  /// Construct over a runtime (and the locator, when the run uses one).
  /// With `cfg.enabled` the layer installs itself on both; otherwise the
  /// constructor does nothing and the run is bit-identical to a build
  /// without fault tolerance. The engine must not run after the layer is
  /// destroyed: a pending sweep or heartbeat wakes a record the layer owns.
  FtLayer(core::Runtime& rt, FtConfig cfg, loc::Locator* locator = nullptr);
  ~FtLayer() override;

  FtLayer(const FtLayer&) = delete;
  FtLayer& operator=(const FtLayer&) = delete;

  [[nodiscard]] const FtConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const FtStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Ground truth for detector-quality metrics and the checker's failure
  /// epochs: a processor's NIC will fail-stop at cycle `at`.
  void note_planned_failure(ProcId p, Cycles at);
  /// Convenience: record every nic_fail_at entry of a fault plan.
  void note_plan(const net::FaultPlan& plan);

  /// Begin heartbeating and lease sweeps at the current cycle. No-op when
  /// disabled or already running.
  void start();
  /// Stop the periodic sweep (in-flight recoveries drain on their own): the
  /// pending sweep wake then does nothing. Call before draining the engine
  /// at the end of a run, or the detector keeps the event queue alive
  /// forever.
  void stop() { running_ = false; }

  // ---- core::FaultTolerance ----
  [[nodiscard]] bool suspected(ProcId p) const override {
    return epoch_[p] != core::kNoFailureEpoch;
  }
  [[nodiscard]] Cycles failure_epoch(ProcId p) const override {
    return epoch_[p];
  }
  [[nodiscard]] ProcId evacuation_target(ProcId dead) const override;
  [[nodiscard]] bool object_lost(ObjectId id) const override {
    return lost_.contains(id);
  }
  [[nodiscard]] bool recovery_pending(ObjectId id) const override {
    return pending_.contains(id);
  }
  [[nodiscard]] sim::Task<> await_object(ObjectId id) override;
  [[nodiscard]] Cycles send_deadline() const override {
    return cfg_.send_deadline;
  }
  [[nodiscard]] unsigned max_call_retries() const override {
    return cfg_.max_call_retries;
  }

 private:
  [[nodiscard]] sim::Engine& engine() const {
    return rt_->machine().engine();
  }
  void arm_sweep();
  /// One detector round: send heartbeats, expire leases, re-arm.
  void sweep();
  /// The sweep's wake. It remembers the cycle it was armed for, so a wake
  /// that `stop()` left pending does nothing after `start()` armed a new
  /// one: it fires before that cycle, or at it, where the first of the two
  /// wakes sweeps and moves `due` on.
  struct Sweep : sim::Continuation {
    FtLayer* ft;
    Cycles due = 0;
    static void fire(sim::Continuation* c);  // sweep() if `due` is now
  };
  /// Heartbeat delivery at a monitor: renew the sender's lease.
  void on_heartbeat(ProcId from);
  /// What every heartbeat from one processor wakes: re-runnable and as
  /// long-lived as the layer, so a drop or a duplicate is harmless.
  struct Heartbeat : sim::Continuation {
    FtLayer* ft;
    ProcId from;
    static void arrive(sim::Continuation* c);  // on_heartbeat(from)
  };
  /// Publish `p`'s failure epoch and kick off recovery of its objects.
  void suspect(ProcId p, Cycles now);
  /// Detached recovery driver for one dead processor (must not throw).
  [[nodiscard]] sim::Task<> recover_proc(ProcId dead, Cycles epoch,
                                         std::vector<ObjectId> ids);
  /// Re-home (or condemn) one object whose home fail-stopped.
  [[nodiscard]] sim::Task<> recover_object(ObjectId id, ProcId dead,
                                           ProcId coord, Cycles epoch);
  /// Commit a re-home: flip ObjectSpace, patch the locator, notify the
  /// checker, account latency, resume waiters.
  void commit(ObjectId id, ProcId dead, ProcId target, Cycles epoch);
  /// Close `id`'s recovery window and resume waiters in registration order.
  void settle(ObjectId id);
  /// Deterministic refuge for an unreplicated object: first live processor
  /// scanning from (dead + 1 + id) in ring order.
  [[nodiscard]] ProcId rehome_target(ObjectId id, ProcId dead) const;
  void trace(sim::TraceEvent ev, ProcId track,
             std::initializer_list<sim::TraceArg> args);

  core::Runtime* rt_;
  FtConfig cfg_;
  loc::Locator* locator_;
  ProcId nprocs_;
  std::vector<Cycles> epoch_;       // kNoFailureEpoch until suspected
  std::vector<Cycles> last_heard_;  // last lease renewal per processor
  std::vector<Heartbeat> heartbeats_;  // one per processor, built once
  std::map<ProcId, Cycles> planned_;
  std::set<ObjectId> pending_;  // recovery enqueued, not yet committed
  std::set<ObjectId> lost_;     // condemned objects
  std::map<ObjectId, std::vector<std::coroutine_handle<>>> waiters_;
  Sweep sweep_{{&Sweep::fire}, this};
  bool running_ = false;
  FtStats stats_;
};

/// Metrics schema helper: exports FtStats under "ft." keys.
void put_ft_stats(core::Metrics& m, const FtStats& s);

}  // namespace cm::ft
