// The checker's two meta-guarantees over whole workloads:
//  1. Zero perturbation — a run with the checker installed is bit-identical
//     to the same run without it (same completion time, same traffic, same
//     application end state), exactly like the tracer's guarantee.
//  2. Deterministic reports — two same-seed checked runs produce
//     byte-identical check reports.
// Plus the checked soaks: the real system under message loss, duplication
// and the distributed locator reports zero violations. When CM_CHECK_REPORT
// is set (the CI sanitize job does), the soak reports are written as JSON
// artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/workload.h"
#include "check/report.h"
#include "core/mobile.h"
#include "sim/engine.h"

namespace cm::apps {
namespace {

using core::Mechanism;
using core::Scheme;

net::FaultPlan loss_plan(double rate) {
  net::FaultPlan plan;
  plan.rates.drop = rate;
  plan.rates.duplicate = rate / 2;
  plan.rates.delay = rate;
  plan.seed = 0xc4a05;
  return plan;
}

CountingConfig counting_cfg(Mechanism mech) {
  CountingConfig cfg;
  cfg.scheme = Scheme{mech, false, false};
  cfg.requesters = 16;
  cfg.ops_per_requester = 25;
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
// Zero perturbation
// ---------------------------------------------------------------------------

TEST(CheckDeterminism, CountingRunIsUnperturbedUnderMigration) {
  const RunStats off = run_counting(counting_cfg(Mechanism::kMigration));

  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  EXPECT_EQ(on.completed_at, off.completed_at);
  EXPECT_EQ(on.net.messages, off.net.messages);
  EXPECT_EQ(on.net.words, off.net.words);
  EXPECT_EQ(on.total_exited, off.total_exited);
  EXPECT_EQ(on.runtime.breakdown.total(), off.runtime.breakdown.total());
  EXPECT_TRUE(on.step_property);

  ASSERT_TRUE(on.checker_enabled);
  EXPECT_FALSE(off.checker_enabled);
  EXPECT_EQ(on.check.total_violations, 0u);
  EXPECT_GT(on.check.delivers, 0u);   // happens-before edges really tracked
  EXPECT_GT(on.check.accesses, 0u);   // locality really checked
  EXPECT_TRUE(on.check.finalized);
}

TEST(CheckDeterminism, BTreeRunIsUnperturbedUnderRpc) {
  const RunStats off = run_btree(btree_cfg(Mechanism::kRpc));

  BTreeConfig cfg = btree_cfg(Mechanism::kRpc);
  cfg.check = true;
  const RunStats on = run_btree(cfg);

  EXPECT_EQ(on.completed_at, off.completed_at);
  EXPECT_EQ(on.net.messages, off.net.messages);
  EXPECT_EQ(on.btree_keys, off.btree_keys);
  EXPECT_EQ(on.btree_digest, off.btree_digest);
  EXPECT_TRUE(on.invariants_ok);
  EXPECT_EQ(on.check.total_violations, 0u);
  EXPECT_GT(on.check.calls, 0u);      // replied-exactly-once windows opened
  EXPECT_EQ(on.check.calls, on.check.replies);
}

TEST(CheckDeterminism, SharedMemoryRunChecksCoherenceDirectory) {
  const RunStats off = run_counting(counting_cfg(Mechanism::kSharedMemory));

  CountingConfig cfg = counting_cfg(Mechanism::kSharedMemory);
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  EXPECT_EQ(on.completed_at, off.completed_at);
  EXPECT_EQ(on.total_exited, off.total_exited);
  EXPECT_EQ(on.check.total_violations, 0u);
  EXPECT_GT(on.check.line_checks, 0u);  // directory transitions really seen
}

// ---------------------------------------------------------------------------
// Deterministic reports
// ---------------------------------------------------------------------------

TEST(CheckDeterminism, SameSeedReportsAreByteIdentical) {
  CountingConfig cfg = counting_cfg(Mechanism::kMigration);
  cfg.locator.mode = loc::Locality::kDistributed;
  cfg.faults = loss_plan(0.05);
  cfg.check = true;
  const RunStats a = run_counting(cfg);
  const RunStats b = run_counting(cfg);
  EXPECT_EQ(report_of(a), report_of(b));
  EXPECT_EQ(a.check.total_violations, 0u);
}

// ---------------------------------------------------------------------------
// Checked soaks: the honest system under stress reports nothing
// ---------------------------------------------------------------------------

TEST(CheckDeterminism, CheckedChaosSoakIsViolationFree) {
  CountingConfig plain = counting_cfg(Mechanism::kMigration);
  plain.faults = loss_plan(0.05);
  const RunStats off = run_counting(plain);

  CountingConfig cfg = plain;
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  // Unperturbed even with faults, retransmissions and dedup in play.
  EXPECT_EQ(on.completed_at, off.completed_at);
  EXPECT_EQ(on.total_exited, off.total_exited);

  EXPECT_GT(on.net.faults_dropped, 0u);
  EXPECT_GT(on.runtime.retransmits, 0u);
  EXPECT_GT(on.check.seqs_sent, 0u);       // transport invariants exercised
  EXPECT_GT(on.check.seqs_delivered, on.check.seqs_sent);  // dup deliveries
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "chaos");
}

TEST(CheckDeterminism, CheckedLocatorSoakIsViolationFree) {
  // RPC under the distributed locator: every remote call resolves through a
  // directory shard and then chases forwarding pointers on arrival.
  BTreeConfig cfg = btree_cfg(Mechanism::kRpc);
  cfg.locator.mode = loc::Locality::kDistributed;
  cfg.faults = loss_plan(0.05);
  cfg.check = true;
  const RunStats on = run_btree(cfg);

  EXPECT_EQ(on.btree_digest, run_btree([&] {
              BTreeConfig off = cfg;
              off.check = false;
              return off;
            }()).btree_digest);
  EXPECT_TRUE(on.invariants_ok);
  EXPECT_GT(on.loc.dir_queries, 0u);
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "locator");
}

TEST(CheckDeterminism, CheckedSharedMemoryBTreeSoakIsViolationFree) {
  // The B-tree under LimitLESS shared memory with 5 hardware pointers: every
  // directory transition of its fetches, invalidation rounds, overflow traps
  // and grants is checked, and the run is the unchecked one.
  const BTreeConfig plain = btree_cfg(Mechanism::kSharedMemory);
  ASSERT_EQ(plain.limitless_pointers, 5u);
  const RunStats off = run_btree(plain);

  BTreeConfig cfg = plain;
  cfg.check = true;
  const RunStats on = run_btree(cfg);

  EXPECT_EQ(on.completed_at, off.completed_at);
  EXPECT_EQ(on.net.messages, off.net.messages);
  EXPECT_EQ(on.btree_keys, off.btree_keys);
  EXPECT_EQ(on.btree_digest, off.btree_digest);
  EXPECT_TRUE(on.invariants_ok);
  EXPECT_EQ(on.check.total_violations, 0u);
  EXPECT_GT(on.check.line_checks, 0u);  // directory transitions really seen
  maybe_write_report(on, "sm_btree");
}

TEST(CheckDeterminism, RealChainChaseIsTracedAndClean) {
  // The locator's canonical stale-hint scenario (cf. loc_test): warm proc
  // 0's hint, drag the object 1 -> 2 -> 3 leaving a two-pointer chain, then
  // call through the stale hint. The checker must see the chase, its two
  // hops, and — because the locator really does compress on arrival — no
  // kForwardCycle / kChainNotCompressed violation.
  StackConfig cfg = bare_config();
  cfg.check = true;
  cfg.check_cfg.abort_on_violation = true;  // any violation stops this test
  cfg.locator.mode = loc::Locality::kDistributed;
  Stack w(5, cfg);
  check::Checker& ck = *w.checker;
  const loc::Locator& locator = *w.locator;
  const core::ObjectId id = w.objects.create(1);
  core::MobileObject mob(w.rt, id, 16);

  auto call_from = [&](sim::ProcId p) -> sim::Task<> {
    core::Ctx ctx{&w.rt, p};
    (void)co_await w.rt.call(ctx, id, core::CallOpts{2, 2, true},
                             [&](core::Ctx& c) -> sim::Task<int> {
                               co_await w.rt.compute(c, 5);
                               co_return 0;
                             });
  };
  auto attract_from = [&](sim::ProcId p) -> sim::Task<> {
    core::Ctx ctx{&w.rt, p};
    co_await mob.attract(ctx);
  };

  sim::detach(call_from(0));  // warm proc 0's hint: object at 1
  w.eng.run();
  sim::detach(attract_from(2));
  w.eng.run();
  sim::detach(attract_from(3));
  w.eng.run();
  sim::detach(call_from(0));  // chases the stale hint 1 -> 2 -> 3
  w.eng.run();
  ck.finalize();

  EXPECT_EQ(locator.stats().bounces, 2u);
  EXPECT_GE(ck.stats().chases, 1u);
  EXPECT_EQ(ck.stats().chase_hops, 2u);
  EXPECT_GE(ck.stats().moves, 2u);
  EXPECT_EQ(ck.violations(), 0u);
}

TEST(CheckDeterminism, CheckedObjectMigrationSoakIsViolationFree) {
  // Object migration under the distributed locator: the 4-leg MOVE protocol
  // runs against directory shards while messages drop — the move-window and
  // forwarding invariants see real relocations.
  CountingConfig cfg = counting_cfg(Mechanism::kObjectMigration);
  cfg.locator.mode = loc::Locality::kDistributed;
  cfg.faults = loss_plan(0.05);
  cfg.check = true;
  const RunStats on = run_counting(cfg);

  EXPECT_EQ(on.total_exited, 16 * 25);
  EXPECT_TRUE(on.step_property);
  EXPECT_GT(on.loc.moves, 0u);
  EXPECT_GT(on.check.moves, 0u);     // move windows really opened and closed
  EXPECT_EQ(on.check.total_violations, 0u);
  maybe_write_report(on, "object-migration");
}

TEST(CheckDeterminism, AbandonedMovesAreExcusedNotGaps) {
  // Brutal loss window: MOVE legs exhaust their bounded retry budget and
  // fall back to RPC. The abandoned seqs must be excused by the checker,
  // not reported as gaps — and nothing else may trip either.
  BTreeConfig cfg = btree_cfg(Mechanism::kMigration);
  cfg.faults.rates.drop = 0.9;
  cfg.faults.window_start = 0;
  cfg.faults.window_end = 40'000;
  cfg.faults.seed = 99;
  cfg.reliable.base_timeout = 200;
  cfg.reliable.move_retry_budget = 2;
  cfg.check = true;
  const RunStats on = run_btree(cfg);

  EXPECT_TRUE(on.invariants_ok);
  EXPECT_GT(on.runtime.migration_fallbacks, 0u);
  EXPECT_GT(on.check.seqs_abandoned, 0u);
  EXPECT_EQ(on.check.total_violations, 0u);
}

}  // namespace
}  // namespace cm::apps
