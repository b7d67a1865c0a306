// apps::Stack, the one assembly of a machine: what a bare Stack builds, and
// the configs no run could finish, which it and the runs refuse. Then
// one run with every optional subsystem switched on at once: the
// distributed locator, the placement policy (rebalance and phase), message
// loss, duplication and delay, a NIC crash with fail-stop recovery, and the
// checker. The paper's contract — the mechanism and the machinery around it
// change performance, never results — must hold for the whole stack
// together, not only for the pairs the other suites combine.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

#include "apps/workload.h"
#include "net/constant_net.h"
#include "net/mesh_net.h"
#include "sim/task.h"

namespace cm::apps {
namespace {

using core::Mechanism;
using core::Scheme;
using sim::Cycles;
using sim::ProcId;

// ---------------------------------------------------------------------------
// What a Stack builds

/// An app without objects, recording whether it was handed a policy.
struct NoApp {
  bool handed = false;
  void set_policy(policy::PolicyEngine* /*pol*/) { handed = true; }
};

TEST(Stack, BareStackBuildsOnlyTheMachine) {
  // bare_config() is on the constant network, StackConfig's defaults on the
  // mesh.
  for (const StackConfig& cfg : {bare_config(), StackConfig{}}) {
    Stack w(4, cfg);
    NoApp app;
    w.start_layers(app);
    EXPECT_FALSE(app.handed);
    EXPECT_EQ(w.machine.size(), 4u);
    EXPECT_EQ(w.eng.tracer(), nullptr);
    EXPECT_EQ(w.eng.checker(), nullptr);
    EXPECT_EQ(&w.net, w.wire.get());  // no fault layer
    EXPECT_EQ(dynamic_cast<net::MeshNetwork*>(&w.net) != nullptr, cfg.mesh);
    EXPECT_EQ(dynamic_cast<net::ConstantNetwork*>(&w.net) != nullptr,
              !cfg.mesh);
    EXPECT_FALSE(w.rt.reliability_enabled());
    EXPECT_EQ(w.mem, nullptr);
    EXPECT_EQ(w.rt.locator(), nullptr);
    EXPECT_EQ(w.policy, nullptr);
    EXPECT_EQ(w.rt.fault_tolerance(), nullptr);
  }
}

sim::Task<> read_in_turn(shmem::CoherentMemory* mem, shmem::Addr a) {
  for (ProcId p = 0; p < 8; ++p) co_await mem->read(p, a, 16);
}

/// LimitLESS traps when 8 processors read one line in turn.
std::uint64_t traps_of_eight_readers(const StackConfig& cfg) {
  Stack w(8, cfg);
  const shmem::Addr a = w.mem->alloc(0, 16);
  sim::detach(read_in_turn(w.mem.get(), a));
  w.eng.run();
  return w.mem->stats().limitless_traps;
}

TEST(Stack, SharedMemoryBuildsMemoryWithItsSharerPointers) {
  for (const Mechanism mech :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kObjectMigration,
        Mechanism::kThreadMigration}) {
    EXPECT_EQ(Stack(4, bare_config(mech)).mem, nullptr);
  }
  // Each sharer past the hardware pointers traps to software; bare_config()
  // has a full map, StackConfig's default five pointers.
  StackConfig cfg = bare_config(Mechanism::kSharedMemory);
  EXPECT_EQ(traps_of_eight_readers(cfg), 0u);
  cfg.limitless_pointers = 2;
  EXPECT_EQ(traps_of_eight_readers(cfg), 6u);
  StackConfig alewife;
  alewife.scheme.mechanism = Mechanism::kSharedMemory;
  EXPECT_EQ(traps_of_eight_readers(alewife), 3u);
}

// ---------------------------------------------------------------------------
// Configs no run could finish are refused before anything runs

TEST(StackConfig, CrashPlanNeedsFt) {
  // Without the ft layer nothing detects the dead NIC, and the reliable
  // transport re-sends to it forever.
  StackConfig bare = bare_config();
  bare.faults.nic_fail_at[3] = 3'000;
  EXPECT_THROW(Stack(4, bare), std::invalid_argument);
  bare.ft.enabled = true;
  EXPECT_NO_THROW(Stack(4, bare));

  CountingConfig cn;  // in fixed-work mode, and in a timed window
  cn.scheme = Scheme{Mechanism::kMigration, false, false};
  cn.requesters = 4;
  cn.ops_per_requester = 5;
  cn.faults.nic_fail_at[3] = 3'000;
  EXPECT_THROW((void)run_counting(cn), std::invalid_argument);
  cn = CountingConfig{};
  cn.scheme = Scheme{Mechanism::kMigration, false, false};
  cn.faults.nic_fail_at[2] = 10'000;
  EXPECT_THROW((void)run_counting(cn), std::invalid_argument);
  BTreeConfig bt;  // bench/ablation_faults' crash, without its ft layer
  bt.scheme = cn.scheme;
  bt.requesters = 8;
  bt.nkeys = 1'000;
  bt.max_entries = 20;
  bt.ops_per_requester = 50;
  bt.faults.nic_fail_at[18] = 15'000;
  EXPECT_THROW((void)run_btree(bt), std::invalid_argument);
}

TEST(StackConfig, RunsNeedARequester) {
  // With ft on, only the last requester's exit stops the failure
  // detector's sweep.
  for (const bool ft : {false, true}) {
    CountingConfig cn;
    cn.requesters = 0;
    cn.ops_per_requester = 5;
    cn.ft.enabled = ft;
    EXPECT_THROW((void)run_counting(cn), std::invalid_argument);
    BTreeConfig bt;
    bt.requesters = 0;
    bt.nkeys = 1'000;
    bt.ops_per_requester = 5;
    bt.ft.enabled = ft;
    EXPECT_THROW((void)run_btree(bt), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Every subsystem at once

/// Turn on every optional subsystem of `cfg`, with `crashes` as the planned
/// NIC deaths the ft layer must recover from.
void everything_on(StackConfig& cfg, std::map<ProcId, Cycles> crashes) {
  cfg.locator.mode = loc::Locality::kDistributed;
  cfg.policy.enabled = true;
  cfg.policy.rebalance = true;
  cfg.policy.phase_adaptive = true;
  cfg.faults.rates = net::FaultRates{.drop = 0.02, .duplicate = 0.01,
                                     .delay = 0.02};
  cfg.faults.nic_fail_at = std::move(crashes);
  cfg.ft.enabled = true;
  cfg.check = true;
}

/// The rebalancer's showcase shape (bench/ablation_policy, lookup-only
/// there): a B-tree on 8 node processors whose 8 requesters each hammer
/// their own key slice, in fixed-work mode. Inserts make the digest check
/// bite: the tree's end state then depends on every insert landing once.
BTreeConfig skewed_tree(Mechanism mech, double insert_ratio) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.mesh = false;
  cfg.requesters = 8;
  cfg.nkeys = 200;
  cfg.max_entries = 20;
  cfg.insert_ratio = insert_ratio;
  cfg.key_affinity = 0.95;
  cfg.node_procs = 8;
  cfg.ops_per_requester = 200;
  return cfg;
}

/// bench/ablation_policy's rebalance_policy() knobs.
void rebalance_knobs(policy::PolicyConfig& p) {
  p.sample_interval = 15'000;
  p.global_every = 1;
  p.min_accesses = 3;
  p.attract_share = 0.55;
  p.degree_of_migration = 4;
}

void expect_clean(const RunStats& r) {
  EXPECT_EQ(r.clamped_events, 0u);
  EXPECT_TRUE(r.checker_enabled);
  EXPECT_EQ(r.check.total_violations, 0u);
  EXPECT_TRUE(r.check_violations.empty());
}

void skewed_tree_keeps_its_results(Mechanism mech, double insert_ratio) {
  SCOPED_TRACE(insert_ratio);
  const RunStats plain = run_btree(skewed_tree(mech, insert_ratio));

  BTreeConfig cfg = skewed_tree(mech, insert_ratio);
  rebalance_knobs(cfg.policy);
  everything_on(cfg, {{3, 30'000}});  // node processor 3
  const RunStats all = run_btree(cfg);

  EXPECT_EQ(all.btree_digest, plain.btree_digest);
  EXPECT_EQ(all.btree_keys, plain.btree_keys);
  EXPECT_TRUE(all.invariants_ok);
  EXPECT_EQ(all.ops, plain.ops);
  EXPECT_EQ(all.ft_lost_ops, 0);

  // Every subsystem did its job in the same run.
  EXPECT_TRUE(all.locator_enabled);
  EXPECT_GT(all.loc.lookups, 0u);
  EXPECT_TRUE(all.policy_enabled);
  EXPECT_GT(all.policy.moves_completed, 0u);
  EXPECT_GT(all.net.faults_dropped, 0u);
  EXPECT_TRUE(all.ft_enabled);
  EXPECT_GT(all.ft.recoveries, 0u);
  expect_clean(all);
}

TEST(Stack, EverySubsystemOnSkewedTreeUnderMigration) {
  for (const double inserts : {0.0, 0.3}) {
    skewed_tree_keeps_its_results(Mechanism::kMigration, inserts);
  }
}

TEST(Stack, EverySubsystemOnSkewedTreeUnderRpc) {
  for (const double inserts : {0.0, 0.3}) {
    skewed_tree_keeps_its_results(Mechanism::kRpc, inserts);
  }
}

void counting_network_drains(Mechanism mech) {
  CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = 200;
  // Two non-adjacent balancer processors (width 8 puts balancers on procs
  // 0..23 and requesters on 24..39).
  everything_on(cfg, {{2, 10'000}, {9, 20'000}});
  const RunStats all = run_counting(cfg);

  EXPECT_EQ(all.total_exited, 16 * 200);
  EXPECT_TRUE(all.step_property);
  EXPECT_EQ(all.ft_lost_ops, 0);
  EXPECT_TRUE(all.locator_enabled);
  EXPECT_TRUE(all.policy_enabled);
  EXPECT_GT(all.policy.samples, 0u);
  EXPECT_GT(all.net.faults_dropped, 0u);
  EXPECT_GT(all.ft.recoveries, 0u);
  expect_clean(all);
}

TEST(Stack, EverySubsystemOnCountingNetworkUnderMigration) {
  counting_network_drains(Mechanism::kMigration);
}

TEST(Stack, EverySubsystemOnCountingNetworkUnderRpc) {
  counting_network_drains(Mechanism::kRpc);
}

}  // namespace
}  // namespace cm::apps
