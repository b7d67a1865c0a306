// Load-aware placement policy: sensing, deciding and actuating over the
// mechanisms the rest of the repo already provides (DESIGN.md §13).
//
// The paper's annotation moves one activation to its data; this layer
// decides *where objects and computations should live over time*:
//
//  * SENSING — a per-processor load sampler on the engine clock
//    (sim::Timer): queue backlog from the processor account, per-object
//    windowed access profiles fed by the apps' instance-method bodies, and
//    the locator's bounce feedback via the shared AdaptiveChooser. Samplers
//    park after a few idle windows and are revived by the next access at
//    their processor, so a drained machine drains the policy too.
//  * DECIDING — a two-tier rebalancer in the spirit of two-level NUMA
//    schedulers: every sample is a local pass over the objects homed at
//    that processor; every `global_every`-th sample is a global pass that
//    reports a quantized load level to a coordinator, which broadcasts a
//    digest back (all cross-processor load knowledge travels in messages,
//    never via host-side shared reads). Moves respect migration hysteresis: a
//    per-object cooldown, a `degree_of_migration` cap per pass, a chooser
//    bounce-rate veto, and a digest-based target-overload veto.
//  * ACTUATING — a bounded batch of MobileObject::attract re-homes, and a
//    phase detector (PHASE_READ / PHASE_UPDATE) that flips hot read-mostly
//    objects into core::Replicated mode and back on write bursts.
//
// Null-by-default, the Tracer/Checker pattern: when no PolicyEngine is
// constructed, every app-side site is a single pointer test and runs are
// byte-identical to a build that never heard of policy.
//
// Determinism: `on_access` is called from the method body executing at the
// object's home, and the dominant accessor is tracked with an incremental
// argmax (first to reach a count wins — never a hash-map iteration).
// `observe_only` senses, decides and traces without moving or flipping
// anything.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/adaptive.h"
#include "core/mobile.h"
#include "core/replication.h"
#include "core/runtime.h"
#include "sim/task.h"
#include "sim/timer.h"
#include "sim/types.h"

namespace cm::core {
class Metrics;
}  // namespace cm::core

namespace cm::policy {

using sim::Cycles;
using sim::ProcId;

struct PolicyConfig {
  bool enabled = false;
  /// Sense, decide and trace but never move or flip anything.
  bool observe_only = false;

  // ---- sampler ----
  Cycles sample_interval = 5'000;  // local pass period per processor
  unsigned global_every = 4;       // every Nth local pass is a global pass
  unsigned idle_stop_after = 3;    // idle samples before a sampler parks
  Cycles load_quantum = 2'000;     // backlog cycles per digest load level
  ProcId coordinator = 0;          // collects reports, broadcasts digests
  unsigned report_words = 2;       // load-report message payload
  unsigned digest_words = 4;       // digest broadcast message payload

  // ---- rebalancer ----
  bool rebalance = true;
  unsigned degree_of_migration = 2;  // max moves per processor per pass
  Cycles cooldown = 30'000;          // per-object migration hysteresis
  std::uint64_t min_accesses = 8;    // window accesses before deciding
  double attract_share = 0.6;        // dominant remote share to move
  unsigned load_slack = 2;           // digest levels a target may exceed us
  unsigned ctl_words = 2;            // rebalance-order message payload

  // ---- phase detector ----
  bool phase_adaptive = false;
  std::uint64_t phase_min_accesses = 12;  // window accesses for a READ edge
  double read_phase_ratio = 0.05;    // write ratio at/below this -> READ
  double update_phase_ratio = 0.25;  // write ratio at/above this -> UPDATE
  std::uint64_t update_min_writes = 3;  // window writes for an UPDATE edge

  /// Tunables for the chooser the policy feeds (accesses, rebalance
  /// bounces) and consults (`bounce_rate_cap` vetoes moves).
  core::AdaptiveChooser::Tunables chooser{};
};

/// Flat counters exported under "policy.*" keys (put_policy_stats).
struct PolicyStats {
  std::uint64_t samples = 0;        // local sampler passes
  std::uint64_t global_passes = 0;  // ... of which global
  std::uint64_t load_reports = 0;   // reports sent to the coordinator
  std::uint64_t broadcast_rounds = 0;
  std::uint64_t digests = 0;        // per-processor digest deliveries sent
  std::uint64_t decisions = 0;      // move verdicts from window profiles
  std::uint64_t moves_issued = 0;
  std::uint64_t moves_completed = 0;
  std::uint64_t suppressed_cooldown = 0;
  std::uint64_t suppressed_bounce = 0;
  std::uint64_t suppressed_load = 0;
  std::uint64_t suppressed_cap = 0;
  std::uint64_t rebounces = 0;      // policy moves that wanted to bounce
  std::uint64_t phase_read_edges = 0;
  std::uint64_t phase_update_edges = 0;
  std::uint64_t flips_on = 0;       // replication-mode flips
  std::uint64_t flips_off = 0;
  std::uint64_t accesses = 0;       // profiled object accesses
  std::uint64_t writes = 0;
  std::uint64_t remote_accesses = 0;
  Cycles max_backlog = 0;           // worst sampled queue backlog
  std::uint64_t managed = 0;        // objects under policy (set by stats())

};

/// Flat "policy.*" keys in the unified metrics schema.
void put_policy_stats(core::Metrics& m, const PolicyStats& s);

class PolicyEngine {
 public:
  /// Per-object phase state (Sniper's PHASE_READ / PHASE_UPDATE idiom).
  enum class Phase : unsigned char { kNeutral = 0, kRead, kUpdate };

  /// Construct after the machine/network/checker are in place; call
  /// `start()` once the managed objects are registered (bootstraps one
  /// sampler per processor). Recording accesses before `start()` is legal
  /// and only feeds profiles.
  PolicyEngine(core::Runtime& rt, PolicyConfig cfg);
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Put an object under policy management. `mobile` is the handle the
  /// rebalancer actuates through (must outlive the engine); `replicable`
  /// opts the object into phase-adaptive replication. Ignored for
  /// already-managed ids.
  void manage(core::ObjectId id, core::MobileObject* mobile,
              unsigned object_words, bool replicable);

  /// Bootstrap the per-processor samplers. Call at setup time, after the
  /// initial `manage()` calls.
  void start();

  /// One profiled access to `id` from `accessor`. Apps call this inside
  /// the instance-method body (which executes at the object's home), or at
  /// the reader's processor on a replica-served read. Never schedules,
  /// draws RNG or charges cycles — except that it may revive the home's
  /// parked sampler.
  void on_access(core::ObjectId id, ProcId accessor, bool write);

  /// The object's replica set while the phase detector has it flipped into
  /// replication mode; null otherwise (including always for unmanaged ids,
  /// observe-only mode, and non-`phase_adaptive` configs). Readers route
  /// through `ensure()` on the returned set.
  [[nodiscard]] core::Replicated* replica_of(core::ObjectId id);

  /// Writer-side barrier: invalidates the replica set if (and only if)
  /// `id` is currently flipped. Apps await this in write bodies; free when
  /// the object is not in replication mode.
  [[nodiscard]] sim::Task<> write_barrier(core::Ctx& ctx, core::ObjectId id);

  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }
  /// The counters, plus the managed-object count.
  [[nodiscard]] PolicyStats stats() const;
  /// The chooser the policy feeds, shared with the locator's `set_chooser`.
  [[nodiscard]] core::AdaptiveChooser& chooser() noexcept { return chooser_; }

  // ---- introspection for tests --------------------------------------------
  [[nodiscard]] std::size_t managed_count() const noexcept {
    return objects_.size();
  }
  [[nodiscard]] Phase phase_of(core::ObjectId id) const;
  /// True while the phase detector has `id` flipped into replication mode.
  [[nodiscard]] bool replicated_mode(core::ObjectId id) const;

 private:
  /// One object under management. Window counters are written only from
  /// events at the object's home.
  struct Managed {
    core::ObjectId id = 0;
    core::MobileObject* mobile = nullptr;
    unsigned words = 0;
    bool replicable = false;
    std::unique_ptr<core::Replicated> replica;  // actuating configs only
    bool flipped = false;       // currently served from replicas
    Phase phase = Phase::kNeutral;
    Cycles last_move_at = 0;
    bool ever_moved = false;
    bool probe_rebounce = false;  // policy moved it; watch for a bounce
    // -- current window profile --
    std::uint64_t win_reads = 0;
    std::uint64_t win_writes = 0;
    std::uint64_t win_remote = 0;
    std::uint64_t win_top_count = 0;  // incremental argmax over remote
    ProcId win_top = sim::kNoProc;    // accessors; ties keep the earliest
    std::unordered_map<ProcId, std::uint64_t> win_by_accessor;
  };

  /// One processor's sampler. Touched only from events homed at that
  /// processor.
  struct Sampler {
    std::unique_ptr<sim::Timer> timer;
    bool parked = true;
    unsigned idle = 0;
    std::uint64_t ticks = 0;
    std::uint64_t accesses_since = 0;  // activity since the last sample
  };

  /// A processor's private copy of the last load digest it received.
  struct View {
    std::uint32_t round = 0;  // 0 = never received one
    std::vector<std::uint8_t> levels;
  };

  [[nodiscard]] sim::Engine& engine() const noexcept {
    return rt_->machine().engine();
  }
  void tick(ProcId p);
  void evaluate_phase(ProcId p, Managed& m, std::uint64_t total);
  void maybe_move(ProcId p, Managed& m, std::uint64_t total, unsigned& moved);
  static void reset_window(Managed& m);
  /// Coordinator-side: fold a load report into the board; broadcast a
  /// digest once enough reports arrived. Runs at the coordinator's events.
  void board_note(ProcId from, std::uint8_t level);

  [[nodiscard]] sim::Task<> do_move(Managed* m, ProcId from, ProcId to);
  [[nodiscard]] sim::Task<> send_report(ProcId from, std::uint8_t level);
  [[nodiscard]] sim::Task<> send_digest(ProcId to, std::uint32_t round,
                                        std::vector<std::uint8_t> levels);
  [[nodiscard]] sim::Task<> invalidate_replicas(core::Replicated* r,
                                                ProcId at);

  core::Runtime* rt_;
  PolicyConfig cfg_;
  ProcId nprocs_;
  bool started_ = false;
  std::deque<Managed> objects_;  // deque: stable addresses for coroutines
  std::unordered_map<core::ObjectId, std::uint32_t> index_;
  std::vector<Sampler> samplers_;             // one per processor
  PolicyStats stats_;
  core::AdaptiveChooser chooser_;
  std::vector<View> views_;                   // one per processor
  // -- coordinator load board; touched only at the coordinator's events --
  std::vector<std::uint8_t> board_levels_;
  unsigned board_reports_ = 0;
  std::uint32_t round_ = 0;
};

}  // namespace cm::policy
