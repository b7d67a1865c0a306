// Experiment drivers reproducing the paper's two workloads:
//  * counting network, 8-64 requester threads, think time 0 / 10,000 cycles
//    (Figures 2 and 3);
//  * distributed B-tree, 16 requesters over a 10,000-key tree on 48 node
//    processors (Tables 1-4 and the branching-factor ablation).
//
// Both drivers assemble one simulated machine the same way (engine,
// processors, network, optional coherent memory, runtime, application; see
// StackConfig), run requester threads through a warmup + measurement window,
// and report the paper's two metrics: throughput (operations per 1000
// cycles) and network bandwidth (words sent per 10 cycles).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/checker.h"
#include "core/mechanism.h"
#include "core/metrics.h"
#include "core/reliable.h"
#include "core/stats.h"
#include "ft/ft.h"
#include "loc/locator.h"
#include "net/faulty_net.h"
#include "policy/policy.h"
#include "sim/types.h"

namespace cm::apps {

struct Window {
  sim::Cycles warmup = 20'000;
  sim::Cycles measure = 150'000;
};

struct RunStats {
  long ops = 0;              // operations completed inside the window
  sim::Cycles window = 0;    // measurement window length
  std::uint64_t words = 0;   // network words sent inside the window
  std::uint64_t messages = 0;
  double cache_hit_rate = 0.0;  // shared-memory schemes only
  core::RtStats runtime;  // full runtime counters incl. Table-5 breakdown
  net::NetStats net;      // full network counters incl. injected faults
  sim::Cycles completed_at = 0;  // engine time when the run drained
  std::uint64_t events_executed = 0;  // engine events the run dispatched
  std::uint64_t clamped_events = 0;   // past-time schedules clamped to now()
                                      // (nonzero = causality bug upstream)

  // Application-level end state, for chaos invariant checks (identical
  // under any fault plan when requesters do fixed work).
  long total_exited = 0;           // counting network: tokens drained
  bool step_property = false;      // counting network: AHS step property
  std::size_t btree_keys = 0;      // B-tree: number of stored keys
  std::uint64_t btree_digest = 0;  // B-tree: digest of (key, value) pairs
  bool invariants_ok = false;      // B-tree: structural invariants hold

  // Distributed object location (only meaningful when a run enables the
  // locator; `locator_enabled` gates the metrics export).
  bool locator_enabled = false;
  loc::LocStats loc;

  // Invariant checking (only meaningful when a run enables the checker;
  // `checker_enabled` gates the "check.*" metrics export). `check_violations`
  // carries the bounded structured records for report assertions.
  bool checker_enabled = false;
  check::CheckStats check;
  std::vector<check::ViolationRecord> check_violations;

  // Fail-stop crash tolerance (only meaningful when a run enables the
  // ft layer; `ft_enabled` gates the "ft.*" metrics export). `ft_lost_ops`
  // counts operations requesters abandoned with a typed core::FtError.
  bool ft_enabled = false;
  ft::FtStats ft;
  long ft_lost_ops = 0;

  // Placement policy (only meaningful when a run enables the policy
  // engine; `policy_enabled` gates the "policy.*" metrics export).
  bool policy_enabled = false;
  policy::PolicyStats policy;

  std::string trace_path;  // Chrome trace written for this run ("" = none)

  [[nodiscard]] double throughput_per_1000() const {
    return window == 0 ? 0.0
                       : static_cast<double>(ops) * 1000.0 /
                             static_cast<double>(window);
  }
  [[nodiscard]] double words_per_10() const {
    return window == 0 ? 0.0
                       : static_cast<double>(words) * 10.0 /
                             static_cast<double>(window);
  }
};

/// The machine a run assembles, common to both applications: scheme,
/// memory system, network, faults, observers and the optional subsystems.
/// Every knob defaults to off, and an off knob constructs nothing.
struct StackConfig {
  core::Scheme scheme;
  // Alewife's coherence protocol [CKA91] is LimitLESS with a handful of
  // hardware sharer pointers; 5 matches the Alewife design point the paper
  // targets. 0 selects an idealised full-map directory.
  unsigned limitless_pointers = 5;
  bool mesh = true;   // route messages over a 2-D mesh with link
                      // contention instead of the uniform-latency model
  sim::Cycles think = 0;     // 0 or 10,000 in the paper
  Window window{};
  std::uint64_t seed = 1;

  // Chaos mode: when `faults.active()`, the interconnect is wrapped in a
  // FaultyNetwork and the runtime's reliable transport is enabled. With an
  // inactive plan neither layer is installed, keeping fault-free runs
  // bit-identical to the pre-fault-injection system. The coherence protocol
  // has no reliable transport, so shared memory under an active plan that
  // sets `affect_coherence` throws std::invalid_argument.
  net::FaultPlan faults;
  core::ReliableConfig reliable;
  // Fixed-work mode: > 0 makes each requester perform exactly this many
  // operations and the run last until all of them drain (the measurement
  // window is ignored). Application-level end state is then comparable
  // across fault plans.
  long ops_per_requester = 0;
  // Non-empty: install a sim::Tracer and write a Chrome trace-event JSON
  // here after the run. Empty (default): no tracer is installed and the
  // simulation is bit-identical to a build without tracing.
  std::string trace_path;
  // Object location: kOracle (default) keeps the omniscient ObjectSpace and
  // is bit-identical to the pre-locator system; kDistributed pays for every
  // lookup through directory shards, translation caches and forwarding
  // chains.
  loc::LocatorConfig locator;
  // Invariant checking: install a check::Checker for the run (vector clocks,
  // lock graph, protocol invariants). Like the tracer, checking never
  // schedules events or charges cycles, so simulation results are identical
  // with it on or off.
  bool check = false;
  check::CheckConfig check_cfg;
  // Fail-stop crash tolerance: with `ft.enabled` an ft::FtLayer (failure
  // detector + recovery) is installed and primed with the fault plan's
  // planned NIC deaths. Disabled (default) keeps the run bit-identical to a
  // build without the layer. Pair with `faults.nic_fail_at` and fixed-work
  // mode so the run drains deterministically.
  ft::FtConfig ft;
  // Placement policy (DESIGN.md §13): with `policy.enabled` a
  // policy::PolicyEngine samples per-processor load, rebalances hot objects
  // and (optionally) phase-flips read-mostly ones into replication mode.
  // Disabled (default) constructs nothing — runs are bit-identical to a
  // build without the subsystem.
  policy::PolicyConfig policy;
};

struct CountingConfig : StackConfig {
  unsigned requesters = 8;   // 8..64, each on its own processor
  unsigned width = 8;        // 8x8 network = 24 balancers on 24 processors
};

[[nodiscard]] RunStats run_counting(const CountingConfig& cfg);

struct BTreeConfig : StackConfig {
  unsigned requesters = 16;
  unsigned max_entries = 100;  // paper: <=100; ablation: <=10
  unsigned nkeys = 10'000;
  double insert_ratio = 0.5;  // fraction of operations that are inserts
  // Requester key skew: with this probability a requester draws from its
  // own contiguous slice of the key space instead of the whole range. 0
  // (default) draws nothing extra from the RNG, so unskewed runs are
  // bit-identical to the pre-knob system. High affinity gives each leaf a
  // dominant accessor — the workload the rebalancer is built for.
  double key_affinity = 0.0;
  sim::ProcId node_procs = 48;
};

[[nodiscard]] RunStats run_btree(const BTreeConfig& cfg);

/// Export a run under the unified metrics schema: run-level metrics first
/// (ops, window, derived rates, app end state), then the full "rt.",
/// "breakdown." and "net." counter sets. Every benchmark goes through this
/// one function, so all emitted JSON records have the same shape.
void put_run_stats(core::Metrics& m, const RunStats& s);

}  // namespace cm::apps
