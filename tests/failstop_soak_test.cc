// Fail-stop soak tests: whole workloads run fixed work while planned NIC
// deaths kill processors mid-run, and — with the ft layer recovering homes
// from replicas or simulated backups — must produce exactly the
// application-level results of the crash-free run. Suites are named
// FailStopSoak* so CI can select them with `ctest -R FailStopSoak`.
//
// Crash plans only kill non-adjacent balancer/node processors: monitors are
// ring successors, so adjacent simultaneous deaths could falsely expire the
// lease of the processor just before them (documented detector limitation).
// Requester processors are never killed — fail-stop tolerance recovers
// objects, not the requesters' own program state.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/workload.h"
#include "check/report.h"

namespace cm::apps {
namespace {

using core::Mechanism;
using core::Scheme;

CountingConfig counting_cfg(Mechanism mech) {
  CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = 25;  // fixed work: results comparable across plans
  return cfg;
}

BTreeConfig btree_cfg(Mechanism mech) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 8;
  cfg.nkeys = 1000;
  cfg.max_entries = 20;
  cfg.ops_per_requester = 25;
  return cfg;
}

// Two non-adjacent balancer processors die mid-run (width 8 puts balancers
// on procs 0..23 and requesters on 24..39).
net::FaultPlan counting_crashes() {
  net::FaultPlan plan;
  plan.nic_fail_at[2] = 10'000;
  plan.nic_fail_at[9] = 20'000;
  return plan;
}

ft::FtConfig ft_on() {
  ft::FtConfig cfg;
  cfg.enabled = true;
  return cfg;
}

std::string report_of(const RunStats& r) {
  return check::check_report_json(r.check, r.check_violations);
}

// Write a soak's check report where CI can pick it up as an artifact.
// CM_CHECK_REPORT names a path prefix; each soak appends its own suffix.
void maybe_write_report(const RunStats& r, const char* suffix) {
  const char* prefix = std::getenv("CM_CHECK_REPORT");
  if (prefix == nullptr) return;
  const std::string path = std::string(prefix) + "." + suffix + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << "cannot write " << path;
  const std::string json = report_of(r);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Counting network
// ---------------------------------------------------------------------------

TEST(FailStopSoakCounting, CrashPreservesExactTotalsUnderMigration) {
  const RunStats clean = run_counting(counting_cfg(Mechanism::kMigration));

  CountingConfig chaos = counting_cfg(Mechanism::kMigration);
  chaos.faults = counting_crashes();
  chaos.ft = ft_on();
  const RunStats faulty = run_counting(chaos);

  // Exact application-level equivalence: balancer and counter state live on
  // the hosts (the NIC died, not the memory), so restore-based recovery
  // re-homes them intact and every token still drains.
  EXPECT_EQ(faulty.total_exited, clean.total_exited);
  EXPECT_EQ(faulty.total_exited, 16 * 25);
  EXPECT_TRUE(faulty.step_property);
  EXPECT_TRUE(clean.step_property);
  EXPECT_EQ(faulty.ft_lost_ops, 0);  // re-home mode: nothing is condemned

  // Both crashes were detected and their objects recovered.
  EXPECT_TRUE(faulty.ft_enabled);
  EXPECT_EQ(faulty.ft.suspicions, 2u);
  EXPECT_EQ(faulty.ft.detected, 2u);
  EXPECT_GT(faulty.ft.recoveries, 0u);
  EXPECT_EQ(faulty.ft.objects_lost, 0u);
  EXPECT_GT(faulty.runtime.ft_suspect_aborts, 0u);

  // Recovery costs time; it must not cost correctness.
  EXPECT_GT(faulty.completed_at, clean.completed_at);
}

TEST(FailStopSoakCounting, CrashPreservesExactTotalsUnderRpc) {
  const RunStats clean = run_counting(counting_cfg(Mechanism::kRpc));

  CountingConfig chaos = counting_cfg(Mechanism::kRpc);
  chaos.faults = counting_crashes();
  chaos.ft = ft_on();
  const RunStats faulty = run_counting(chaos);

  EXPECT_EQ(faulty.total_exited, clean.total_exited);
  EXPECT_TRUE(faulty.step_property);
  EXPECT_EQ(faulty.ft_lost_ops, 0);
  EXPECT_EQ(faulty.ft.suspicions, 2u);
  EXPECT_GT(faulty.ft.recoveries, 0u);
}

TEST(FailStopSoakCounting, SameSeedCrashRunsAreBitIdentical) {
  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.faults = counting_crashes();
  cfg.ft = ft_on();
  const RunStats a = run_counting(cfg);
  const RunStats b = run_counting(cfg);

  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.net.messages, b.net.messages);
  EXPECT_EQ(a.net.words, b.net.words);
  EXPECT_EQ(a.total_exited, b.total_exited);
  EXPECT_EQ(a.ft.suspicions, b.ft.suspicions);
  EXPECT_EQ(a.ft.detect_latency_sum, b.ft.detect_latency_sum);
  EXPECT_EQ(a.ft.recoveries, b.ft.recoveries);
  EXPECT_EQ(a.ft.rehome_latency_sum, b.ft.rehome_latency_sum);
  EXPECT_EQ(a.runtime.ft_call_retries, b.runtime.ft_call_retries);
}

TEST(FailStopSoakCounting, DisabledFtIsBitIdenticalToPlainRun) {
  // The opt-in gate: a default-constructed FtConfig must leave the run
  // byte-identical to one that never heard of fault tolerance — no
  // heartbeats, no detector, no new counters.
  const RunStats plain = run_counting(counting_cfg(Mechanism::kMigration));

  CountingConfig gated_cfg = counting_cfg(Mechanism::kMigration);
  gated_cfg.ft = ft::FtConfig{};  // enabled = false
  const RunStats gated = run_counting(gated_cfg);

  EXPECT_FALSE(gated.ft_enabled);
  EXPECT_EQ(gated.completed_at, plain.completed_at);
  EXPECT_EQ(gated.net.messages, plain.net.messages);
  EXPECT_EQ(gated.net.words, plain.net.words);
  EXPECT_EQ(gated.total_exited, plain.total_exited);
  EXPECT_EQ(gated.runtime.ft_suspect_aborts, 0u);
  EXPECT_EQ(gated.runtime.ft_call_retries, 0u);
}

TEST(FailStopSoakCounting, FtOnWithoutCrashesPreservesTotals) {
  // The detector itself must be semantically free: heartbeats add traffic,
  // never suspicion or state change, when nothing actually dies.
  const RunStats clean = run_counting(counting_cfg(Mechanism::kMigration));

  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.ft = ft_on();
  const RunStats watched = run_counting(cfg);

  EXPECT_EQ(watched.total_exited, clean.total_exited);
  EXPECT_TRUE(watched.step_property);
  EXPECT_GT(watched.ft.heartbeats_sent, 0u);
  EXPECT_GT(watched.ft.leases_renewed, 0u);
  EXPECT_EQ(watched.ft.suspicions, 0u);
  EXPECT_EQ(watched.ft.recoveries, 0u);
  EXPECT_EQ(watched.ft_lost_ops, 0);
}

TEST(FailStopSoakCounting, LostModeDegradesGracefully) {
  // With restore disabled, objects on the dead processor are condemned:
  // requesters catch the typed ObjectLostError per operation, skip it, and
  // the run still drains cleanly with exactly the uncondemned work done.
  CountingConfig cfg = counting_cfg(Mechanism::kRpc);
  net::FaultPlan plan;
  plan.nic_fail_at[2] = 10'000;
  cfg.faults = plan;
  cfg.ft = ft_on();
  cfg.ft.rehome_unreplicated = false;
  const RunStats lossy = run_counting(cfg);

  EXPECT_EQ(lossy.ft.suspicions, 1u);
  EXPECT_GT(lossy.ft.objects_lost, 0u);
  EXPECT_GT(lossy.ft_lost_ops, 0);
  EXPECT_EQ(lossy.total_exited,
            16 * 25 - lossy.ft_lost_ops);  // every op accounted for
}

// ---------------------------------------------------------------------------
// B-tree
// ---------------------------------------------------------------------------

TEST(FailStopSoakBTree, CrashPreservesExactContentsUnderMigration) {
  const RunStats clean = run_btree(btree_cfg(Mechanism::kMigration));

  BTreeConfig chaos = btree_cfg(Mechanism::kMigration);
  net::FaultPlan plan;
  // Proc 18 hosts several nodes under seed 1; requesters live on 48+.
  plan.nic_fail_at[18] = 15'000;
  chaos.faults = plan;
  chaos.ft = ft_on();
  const RunStats faulty = run_btree(chaos);

  // Node contents survive the NIC death on the host side, so the recovered
  // tree stores exactly the clean run's key/value pairs.
  EXPECT_EQ(faulty.btree_keys, clean.btree_keys);
  EXPECT_EQ(faulty.btree_digest, clean.btree_digest);
  EXPECT_TRUE(faulty.invariants_ok);
  EXPECT_TRUE(clean.invariants_ok);
  EXPECT_EQ(faulty.ft_lost_ops, 0);

  EXPECT_EQ(faulty.ft.suspicions, 1u);
  EXPECT_EQ(faulty.ft.detected, 1u);
  EXPECT_GT(faulty.ft.recoveries, 0u);
  EXPECT_EQ(faulty.ft.objects_lost, 0u);
}

TEST(FailStopSoakBTree, CrashPreservesExactContentsUnderRpc) {
  const RunStats clean = run_btree(btree_cfg(Mechanism::kRpc));

  BTreeConfig chaos = btree_cfg(Mechanism::kRpc);
  net::FaultPlan plan;
  plan.nic_fail_at[18] = 15'000;
  chaos.faults = plan;
  chaos.ft = ft_on();
  const RunStats faulty = run_btree(chaos);

  EXPECT_EQ(faulty.btree_keys, clean.btree_keys);
  EXPECT_EQ(faulty.btree_digest, clean.btree_digest);
  EXPECT_TRUE(faulty.invariants_ok);
  EXPECT_EQ(faulty.ft.suspicions, 1u);
  EXPECT_GT(faulty.ft.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Checked soaks: the invariant checker rides along and must stay silent —
// no delivery after a failure epoch, at-most-once re-homes, monotone leases.
// ---------------------------------------------------------------------------

TEST(FailStopSoakChecked, CountingCrashSoakIsViolationFree) {
  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.faults = counting_crashes();
  cfg.ft = ft_on();
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  EXPECT_EQ(on.total_exited, 16 * 25);
  EXPECT_TRUE(on.step_property);
  EXPECT_EQ(on.check.fail_stops, 2u);
  EXPECT_EQ(on.check.suspicions, 2u);
  EXPECT_GT(on.check.leases, 0u);
  EXPECT_GT(on.check.rehomes, 0u);
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "failstop");
}

TEST(FailStopSoakChecked, LocatorCrashSoakIsViolationFree) {
  // The distributed locator under crashes: directory queries fail over to
  // replica shards, forwarding chains through the dead processors are cut,
  // and the checker's ownership mirror must still agree everywhere.
  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.locator.mode = loc::Locality::kDistributed;
  cfg.faults = counting_crashes();
  cfg.ft = ft_on();
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  EXPECT_EQ(on.total_exited, 16 * 25);
  EXPECT_TRUE(on.step_property);
  EXPECT_TRUE(on.locator_enabled);
  EXPECT_GT(on.loc.dir_queries, 0u);
  EXPECT_EQ(on.check.fail_stops, 2u);
  EXPECT_GT(on.check.rehomes, 0u);
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "failstop-locator");
}

TEST(FailStopSoakChecked, BTreeCrashSoakIsViolationFree) {
  BTreeConfig cfg = btree_cfg(Mechanism::kMigration);
  net::FaultPlan plan;
  plan.nic_fail_at[18] = 15'000;
  cfg.faults = plan;
  cfg.ft = ft_on();
  cfg.check = true;
  const RunStats on = run_btree(cfg);

  EXPECT_TRUE(on.invariants_ok);
  EXPECT_EQ(on.check.fail_stops, 1u);
  EXPECT_GT(on.check.rehomes, 0u);
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "failstop-btree");
}

}  // namespace
}  // namespace cm::apps
