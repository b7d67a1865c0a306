// Placement-policy determinism and end-to-end behaviour over the real
// workloads (DESIGN.md §13):
//
//  1. Policy off is free — a config carrying non-default policy knobs with
//     `enabled == false` produces byte-identical metrics to a pristine
//     config (the PolicyEngine is never constructed).
//  2. Observe mode decides but never acts — an observe run reaches real
//     move verdicts, yet moves and flips nothing and violates nothing.
//  3. Actuating mode is deterministic — two same-seed runs with the
//     rebalancer and phase detector on produce byte-identical metrics,
//     check reports and Chrome traces.
//  4. The rebalancer earns its keep — on a skewed B-tree (high
//     `key_affinity`) it completes moves and reduces remote calls versus
//     static placement; on the write-shared counting network (no dominant
//     accessor) it correctly never moves anything.
//  5. Policy soak — rebalancer + phase detector under a FaultyNetwork
//     report zero checker violations and fault-invariant application
//     results. When CM_CHECK_REPORT is set (CI), the report is written as
//     a JSON artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "apps/workload.h"
#include "check/report.h"
#include "core/metrics.h"

namespace cm::apps {
namespace {

using core::Mechanism;
using core::Scheme;

std::string metrics_json(const RunStats& r) {
  core::Metrics m;
  put_run_stats(m, r);
  std::string out;
  m.append_json_fields(out);
  return out;
}

std::string scrub(std::string json, std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    const std::size_t at = json.find(key);
    if (at == std::string::npos) continue;
    std::size_t val = at + std::string(key).size();
    while (val < json.size() && json[val] == ' ') ++val;
    if (val < json.size() && json[val] == '"') {  // string value
      val = json.find('"', val + 1);
    }
    std::size_t end = json.find(',', val);
    end = end == std::string::npos ? json.size() : end + 2;  // ", "
    json.erase(at, end - at);
  }
  return json;
}

std::string scrub_trace_path(std::string json) {
  return scrub(std::move(json), {"\"trace\":"});
}

std::string report_of(const RunStats& r) {
  return check::check_report_json(r.check, r.check_violations);
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "cannot read " << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
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

/// The rebalancer's showcase workload: a lookup-only RPC B-tree where each
/// requester hammers its own contiguous key slice (key_affinity), giving
/// every leaf a dominant remote accessor. Few keys on purpose: a requester's
/// slice maps to only a couple of leaves, so per-window access counts clear
/// the decision thresholds.
BTreeConfig skewed_cfg() {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  cfg.mesh = false;
  cfg.requesters = 8;
  cfg.nkeys = 200;
  cfg.max_entries = 20;
  cfg.insert_ratio = 0.0;
  cfg.key_affinity = 0.95;
  cfg.node_procs = 8;
  cfg.ops_per_requester = 80;
  cfg.check = true;
  return cfg;
}

policy::PolicyConfig rebalance_policy() {
  policy::PolicyConfig p;
  p.enabled = true;
  p.sample_interval = 15'000;
  p.global_every = 1;
  p.min_accesses = 3;
  p.attract_share = 0.55;
  p.degree_of_migration = 4;
  return p;
}

// ---------------------------------------------------------------------------
// 1. Policy off is free
// ---------------------------------------------------------------------------

TEST(PolicyDeterminism, DisabledPolicyIsByteIdenticalToPristineConfig) {
  BTreeConfig pristine = skewed_cfg();
  BTreeConfig carried = skewed_cfg();
  // Every knob set, nothing enabled: the engine must never be constructed.
  carried.policy = rebalance_policy();
  carried.policy.enabled = false;
  carried.policy.phase_adaptive = true;
  carried.policy.observe_only = true;
  const RunStats a = run_btree(pristine);
  const RunStats b = run_btree(carried);
  EXPECT_FALSE(a.policy_enabled);
  EXPECT_FALSE(b.policy_enabled);
  EXPECT_EQ(metrics_json(b), metrics_json(a));
  EXPECT_EQ(report_of(b), report_of(a));
}

// ---------------------------------------------------------------------------
// 2. Observe mode decides but never acts
// ---------------------------------------------------------------------------

TEST(PolicyDeterminism, ObserveModeDecidesButNeverActs) {
  // The skewed tree again, so the observe run reaches real move verdicts —
  // and must not act on them.
  BTreeConfig cfg = skewed_cfg();
  cfg.policy = rebalance_policy();
  cfg.policy.observe_only = true;
  cfg.policy.phase_adaptive = true;
  const RunStats r = run_btree(cfg);
  EXPECT_TRUE(r.policy_enabled);
  EXPECT_GT(r.policy.samples, 0u);
  EXPECT_GT(r.policy.accesses, 0u);
  EXPECT_GT(r.policy.decisions, 0u);      // it wanted to move things ...
  EXPECT_EQ(r.policy.moves_issued, 0u);   // ... and never did
  EXPECT_EQ(r.policy.flips_on, 0u);
  EXPECT_EQ(r.check.total_violations, 0u);
}

// ---------------------------------------------------------------------------
// 3. Actuating mode: same seed, same bytes (metrics, report, trace)
// ---------------------------------------------------------------------------

TEST(PolicyDeterminism, ActuatingRunIsBitIdenticalAcrossRepeats) {
  BTreeConfig cfg = skewed_cfg();
  cfg.policy = rebalance_policy();
  cfg.policy.phase_adaptive = true;
  cfg.trace_path = testing::TempDir() + "policy_actuate_a.json";
  const RunStats a = run_btree(cfg);
  cfg.trace_path = testing::TempDir() + "policy_actuate_b.json";
  const RunStats b = run_btree(cfg);
  EXPECT_TRUE(a.policy_enabled);
  EXPECT_GT(a.policy.moves_completed, 0u);
  EXPECT_EQ(scrub_trace_path(metrics_json(b)),
            scrub_trace_path(metrics_json(a)));
  EXPECT_EQ(report_of(b), report_of(a));
  EXPECT_EQ(slurp(b.trace_path), slurp(a.trace_path));
}

// ---------------------------------------------------------------------------
// 4. The rebalancer earns its keep (and knows when to do nothing)
// ---------------------------------------------------------------------------

TEST(PolicyDeterminism, RebalancerReducesRemoteCallsOnSkewedTree) {
  BTreeConfig cfg = skewed_cfg();
  const RunStats stat = run_btree(cfg);  // static placement baseline
  cfg.policy = rebalance_policy();
  const RunStats reb = run_btree(cfg);
  EXPECT_TRUE(reb.policy_enabled);
  EXPECT_GT(reb.policy.samples, 0u);
  EXPECT_GT(reb.policy.moves_completed, 0u);
  // Policy moves are the only object moves under RPC.
  EXPECT_EQ(reb.runtime.object_moves, reb.policy.moves_completed);
  EXPECT_EQ(stat.runtime.object_moves, 0u);
  // Moved leaves serve their dominant requester locally from then on.
  EXPECT_LT(reb.runtime.remote_calls, stat.runtime.remote_calls);
  // Same work either way.
  EXPECT_EQ(reb.ops, stat.ops);
  EXPECT_EQ(reb.btree_digest, stat.btree_digest);
  EXPECT_EQ(reb.check.total_violations, 0u);
}

TEST(PolicyDeterminism, WriteSharedCountingNetworkIsNeverRebalanced) {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  cfg.mesh = false;
  cfg.requesters = 16;
  cfg.ops_per_requester = 30;
  cfg.check = true;
  cfg.policy = rebalance_policy();
  // Paper-default hysteresis: a balancer fed by several wires never gives
  // one processor 80% of a window, so nothing qualifies for a move.
  cfg.policy.min_accesses = 12;
  cfg.policy.attract_share = 0.8;
  const RunStats r = run_counting(cfg);
  EXPECT_TRUE(r.policy_enabled);
  EXPECT_GT(r.policy.accesses, 0u);
  EXPECT_GT(r.policy.samples, 0u);
  // Balancers and counters are write-shared by construction: no processor
  // ever reaches a dominant-accessor share, so the rebalancer stays quiet.
  EXPECT_EQ(r.policy.moves_issued, 0u);
  EXPECT_EQ(r.check.total_violations, 0u);
}

// ---------------------------------------------------------------------------
// 5. Policy soak under a faulty network
// ---------------------------------------------------------------------------

TEST(PolicyDeterminism, PolicySoakUnderFaultyNetworkKeepsInvariants) {
  BTreeConfig cfg = skewed_cfg();
  cfg.insert_ratio = 0.3;  // splits register fresh nodes mid-run
  cfg.policy = rebalance_policy();
  cfg.policy.phase_adaptive = true;
  const RunStats calm = run_btree(cfg);
  cfg.faults.rates.drop = 0.05;
  cfg.faults.rates.duplicate = 0.025;
  cfg.faults.rates.delay = 0.05;
  cfg.faults.seed = 0xc4a05;
  const RunStats r = run_btree(cfg);
  EXPECT_GT(r.net.faults_dropped, 0u);  // faults really fired
  EXPECT_TRUE(r.policy_enabled);
  EXPECT_GT(r.policy.moves_completed, 0u);
  EXPECT_EQ(r.check.total_violations, 0u);
  EXPECT_TRUE(r.invariants_ok);
  // Fixed work: injected faults (and the policy's fault-shifted decision
  // history) never change application-level results.
  EXPECT_EQ(r.btree_keys, calm.btree_keys);
  EXPECT_EQ(r.btree_digest, calm.btree_digest);
  maybe_write_report(r, "policy_soak");
}

}  // namespace
}  // namespace cm::apps
