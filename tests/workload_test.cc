#include "apps/workload.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cm::apps {
namespace {

using core::Mechanism;
using core::Scheme;

Window quick() { return Window{5'000, 40'000}; }

TEST(CountingWorkload, ProducesThroughput) {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  cfg.requesters = 8;
  cfg.window = quick();
  const RunStats s = run_counting(cfg);
  EXPECT_GT(s.ops, 0);
  EXPECT_GT(s.words, 0u);
  EXPECT_GT(s.throughput_per_1000(), 0.0);
  EXPECT_GT(s.words_per_10(), 0.0);
}

TEST(CountingWorkload, Deterministic) {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.window = quick();
  const RunStats a = run_counting(cfg);
  const RunStats b = run_counting(cfg);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.words, b.words);
}

TEST(CountingWorkload, MigrationBeatsRpcUnderContention) {
  CountingConfig cfg;
  cfg.requesters = 32;
  cfg.think = 0;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  const RunStats rpc = run_counting(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  const RunStats mig = run_counting(cfg);
  EXPECT_GT(mig.throughput_per_1000(), rpc.throughput_per_1000());
  EXPECT_LT(mig.words_per_10(), rpc.words_per_10());
}

TEST(CountingWorkload, HardwareSupportHelps) {
  CountingConfig cfg;
  cfg.requesters = 32;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  const RunStats sw = run_counting(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, true, false};
  const RunStats hw = run_counting(cfg);
  EXPECT_GT(hw.throughput_per_1000(), sw.throughput_per_1000());
}

TEST(CountingWorkload, SharedMemoryBurnsBandwidth) {
  CountingConfig cfg;
  cfg.requesters = 32;
  cfg.think = 0;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
  const RunStats sm = run_counting(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  const RunStats mig = run_counting(cfg);
  EXPECT_GT(sm.words_per_10(), 2.0 * mig.words_per_10());
  EXPECT_LT(sm.cache_hit_rate, 0.7);  // balancers are write-shared
}

TEST(CountingWorkload, ThinkTimeLowersLoad) {
  CountingConfig cfg;
  cfg.requesters = 16;
  cfg.window = Window{5'000, 80'000};
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.think = 0;
  const RunStats hot = run_counting(cfg);
  cfg.think = 10'000;
  const RunStats cold = run_counting(cfg);
  EXPECT_LT(cold.ops, hot.ops);
}

TEST(CountingWorkload, FixedAndTimedWindowsAgree) {
  // The measurement window is half-open [warm_at, end_at) for ops, words,
  // and messages alike. A fixed-work run (one requester, 3 ops) and a timed
  // run whose window closes one cycle after the fixed run drained replay
  // the same event sequence through that point — the requester's 4th op
  // cannot start until a full think time later — so every counter must
  // agree exactly, including ops completing on the window boundary itself.
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 1;
  cfg.think = 10'000;
  cfg.ops_per_requester = 3;
  const RunStats fixed = run_counting(cfg);
  EXPECT_EQ(fixed.ops, 3);
  EXPECT_EQ(fixed.total_exited, 3);

  CountingConfig timed = cfg;
  timed.ops_per_requester = 0;
  timed.window = Window{0, fixed.completed_at + 1};
  const RunStats t = run_counting(timed);
  EXPECT_EQ(t.ops, fixed.ops);
  EXPECT_EQ(t.words, fixed.words);
  EXPECT_EQ(t.messages, fixed.messages);
}

TEST(BTreeWorkload, ProducesThroughputAndStaysValid) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.nkeys = 2'000;
  cfg.window = quick();
  const RunStats s = run_btree(cfg);
  EXPECT_GT(s.ops, 0);
  EXPECT_GT(s.runtime.migrations, 0u);
}

TEST(BTreeWorkload, Deterministic) {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  cfg.nkeys = 1'000;
  cfg.window = quick();
  const RunStats a = run_btree(cfg);
  const RunStats b = run_btree(cfg);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.words, b.words);
}

TEST(BTreeWorkload, MigrationBeatsRpc) {
  BTreeConfig cfg;
  cfg.nkeys = 2'000;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kRpc, false, false};
  const RunStats rpc = run_btree(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  const RunStats mig = run_btree(cfg);
  EXPECT_GT(mig.throughput_per_1000(), rpc.throughput_per_1000());
}

TEST(BTreeWorkload, ReplicationHelpsMigration) {
  BTreeConfig cfg;
  cfg.nkeys = 2'000;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  const RunStats plain = run_btree(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, false, true};
  const RunStats repl = run_btree(cfg);
  EXPECT_GT(repl.throughput_per_1000(), plain.throughput_per_1000());
}

TEST(StackConfig, SharedMemoryRejectsPlansThatFaultCoherence) {
  // The coherence protocol has no transport to retransmit or deduplicate
  // its messages: a drop would strand a requester and a duplicate would
  // resume a finished frame. Such a plan is refused before anything runs.
  BTreeConfig bt;
  bt.scheme = Scheme{Mechanism::kSharedMemory, false, false};
  bt.requesters = 4;
  bt.nkeys = 1'000;
  bt.ops_per_requester = 20;
  bt.seed = 7;
  bt.faults.affect_coherence = true;
  bt.faults.rates.drop = 0.05;
  EXPECT_THROW((void)run_btree(bt), std::invalid_argument);
  bt.faults.rates = net::FaultRates{.duplicate = 0.05};
  EXPECT_THROW((void)run_btree(bt), std::invalid_argument);
  CountingConfig cn;
  cn.scheme = bt.scheme;
  cn.ops_per_requester = 5;
  cn.faults = bt.faults;
  EXPECT_THROW((void)run_counting(cn), std::invalid_argument);

  // The flag alone, with no fault to inject, and the same faults with
  // coherence traffic exempt, both run.
  bt.faults.rates = {};
  EXPECT_EQ(run_btree(bt).ops, 80);
  bt.faults.rates.duplicate = 0.05;
  bt.faults.affect_coherence = false;
  EXPECT_EQ(run_btree(bt).ops, 80);
  // Message passing keeps its reliable transport under the same plan.
  bt.faults.affect_coherence = true;
  bt.scheme = Scheme{Mechanism::kRpc, false, false};
  EXPECT_EQ(run_btree(bt).ops, 80);
}

TEST(BTreeWorkload, SharedMemoryUsesMostBandwidth) {
  BTreeConfig cfg;
  cfg.nkeys = 2'000;
  cfg.window = quick();
  cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
  const RunStats sm = run_btree(cfg);
  cfg.scheme = Scheme{Mechanism::kMigration, false, true};
  const RunStats cp = run_btree(cfg);
  EXPECT_GT(sm.words_per_10(), cp.words_per_10());
}

}  // namespace
}  // namespace cm::apps
