// Counting network application (paper §4.1).
//
// A counting network [Aspnes-Herlihy-Shavit 1991] is a distributed data
// structure for "shared counting": a width-w network of 2x2 balancers; a
// thread injects a token on an input wire, the token bounces balancer to
// balancer, and on exiting output wire i takes the value i + w * (tokens
// previously out wire i). The bitonic construction of width 8 has 6 stages
// of 4 balancers — 24 balancers, which the paper lays out one per processor.
//
// The traversal is written once, over a node-access layer that each
// `get_next` picks from its mechanism (node_access.h) — mirroring the
// paper's claim that the migration annotation (not program structure)
// chooses the mechanism. Each visit has one body; the layer decides where
// it runs:
//  * RPC: each balancer access is a short-method remote call (2 messages).
//  * Computation migration: `migrate(balancer)` before the access, so the
//    activation hops balancer to balancer (1 message per hop) and the final
//    value returns directly to the requester.
//  * Shared memory: balancer state lives in coherent shared memory; the
//    toggle update is an exclusive (read-modify-write) acquisition of its
//    cache line — balancers are write-shared, so this line migrates from
//    cache to cache, and the wiring configuration is read-shared.
//
// The user-code costs and the message payloads are the paper's fixed
// workload and live as constants in counting_network.cc; Params holds what
// an experiment varies: width, placement and the RPC fast path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mechanism.h"
#include "core/mobile.h"
#include "core/runtime.h"
#include "shmem/coherent_memory.h"
#include "shmem/sync.h"
#include "sim/task.h"

namespace cm::policy {
class PolicyEngine;
}  // namespace cm::policy

namespace cm::apps {

/// Where a balancer output port leads: another balancer or an output wire.
struct Target {
  bool is_output = false;
  unsigned index = 0;  // balancer id or output-wire index

  friend bool operator==(const Target&, const Target&) = default;
};

/// Pure wiring of a bitonic counting network: balancers and their output
/// targets. Separated from the runtime objects so the construction can be
/// tested on its own.
struct BitonicWiring {
  struct Balancer {
    Target out[2];
    unsigned stage = 0;  // distance from the inputs (0-based)
  };
  std::vector<Balancer> balancers;
  std::vector<unsigned> entry;  // input wire -> first balancer id
  unsigned width = 0;
  unsigned depth = 0;  // number of stages

  /// Build Bitonic[width]. Throws std::invalid_argument unless width is a
  /// power of two >= 2.
  static BitonicWiring build(unsigned width);
};

class CountingNetwork {
 public:
  struct Params {
    unsigned width = 8;
    sim::ProcId first_balancer_proc = 0;  // balancer i on proc first + i
    bool rpc_short_methods = false;  // Prelude "creates a new thread for
                                     // most remote calls" (§4.3); set true
                                     // to model the Active-Messages fast
                                     // path for balancer accesses
  };

  /// `mem` may be null if the shared-memory mechanism is never used.
  /// Throws std::invalid_argument for a width BitonicWiring rejects.
  CountingNetwork(core::Runtime& rt, shmem::CoherentMemory* mem, Params p);

  /// The traversal procedure: inject a token on `enter_wire`, traverse to an
  /// output wire, take the next value there. Under kMigration the activation
  /// ends at the final balancer's processor — callers that need the value
  /// back home follow with `return_home` (or use apps::Requester). An
  /// `enter_wire` of width() or more throws std::out_of_range when awaited,
  /// and so does shared memory on a network built without a CoherentMemory
  /// (std::invalid_argument), both before any simulated step.
  [[nodiscard]] sim::Task<long> get_next(core::Ctx& ctx, core::Mechanism mech,
                                         unsigned enter_wire);

  [[nodiscard]] unsigned width() const noexcept { return wiring_.width; }
  [[nodiscard]] unsigned num_balancers() const {
    return static_cast<unsigned>(wiring_.balancers.size());
  }

  /// Tokens that have exited, over all output wires.
  [[nodiscard]] long total_exited() const;

  /// Step property at quiescence: counts are non-increasing left to right
  /// and differ by at most 1 (AHS). Only meaningful with no token in flight.
  [[nodiscard]] bool has_step_property() const;

  /// Put the balancers and counters under placement-policy management
  /// (null detaches). Balancers are write-shared — the policy's negative
  /// control: a sane rebalancer should leave them alone.
  void set_policy(policy::PolicyEngine* pol);

 private:
  struct BalancerRt {
    core::ObjectId oid = 0;
    int toggle = 0;
    long passed = 0;
    shmem::Addr toggle_addr = 0;  // write-shared line
    shmem::Addr config_addr = 0;  // read-shared wiring line
    std::unique_ptr<shmem::SpinLock> lock;  // SM: balancers are lock-protected
    std::unique_ptr<core::MobileObject> mobile;  // Emerald-style mobility
  };
  struct CounterRt {
    core::ObjectId oid = 0;
    shmem::Addr addr = 0;
    std::unique_ptr<core::MobileObject> mobile;
  };

  // The node-access layer (counting_network.cc), picked by with_access.
  class Coherent;  // shared memory
  class Messages;  // RPC, CP, OBJ and TM

  template <class A>
  sim::Task<long> traverse(core::Ctx& ctx, A acc, unsigned enter_wire);

  core::Runtime* rt_;
  shmem::CoherentMemory* mem_;
  policy::PolicyEngine* policy_ = nullptr;  // null = no placement policy
  Params p_;
  BitonicWiring wiring_;
  std::vector<BalancerRt> brt_;
  std::vector<CounterRt> counters_;
  std::vector<long> counts_;
};

}  // namespace cm::apps
