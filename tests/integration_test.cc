// Cross-subsystem integration tests: several mechanisms, the coherence
// system, replication and mobile objects co-resident on one simulated
// machine, exercised together the way a real application would.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "apps/workload.h"
#include "core/adaptive.h"
#include "core/mobile.h"
#include "core/replication.h"
#include "sim/rng.h"

namespace cm {
namespace {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

/// A bare machine on the mesh.
apps::StackConfig on_mesh(Mechanism mech) {
  apps::StackConfig cfg = apps::bare_config(mech);
  cfg.mesh = true;
  return cfg;
}

// A machine hosting BOTH applications at once, on a mesh, with coherent
// memory — runtime messages and coherence traffic share the interconnect.
struct BigWorld : apps::Stack {
  apps::CountingNetwork cn;
  apps::DistributedBTree bt;

  BigWorld()
      : Stack(64, on_mesh(Mechanism::kSharedMemory)),
        cn(rt, mem.get(), cn_params()),
        bt(rt, mem.get(), bt_params()) {}

  static apps::CountingNetwork::Params cn_params() {
    apps::CountingNetwork::Params p;
    p.width = 8;
    p.first_balancer_proc = 0;  // balancers on procs 0..23
    return p;
  }
  static apps::DistributedBTree::Params bt_params() {
    apps::DistributedBTree::Params p;
    p.max_entries = 8;
    p.node_procs = 48;  // tree nodes share procs 0..47 with the balancers
    p.replication = true;
    return p;
  }
};

Task<> mixed_worker(BigWorld* w, ProcId home, std::uint64_t seed, int rounds,
                    Mechanism mech, std::vector<long>* tokens, int* found) {
  Ctx ctx{&w->rt, home};
  sim::Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    // Draw a loop index from the counting network, use it as a B-tree key.
    const long v = co_await w->cn.get_next(
        ctx, mech, static_cast<unsigned>(rng.below(8)));
    co_await w->rt.return_home(ctx, home, 2);
    tokens->push_back(v);
    const auto key = static_cast<std::uint64_t>(1 + v);
    (void)co_await w->bt.insert(ctx, mech, key, key);
    if (co_await w->bt.lookup(ctx, mech, key)) ++*found;
  }
}

TEST(Integration, BothAppsShareOneMachineUnderEveryMechanism) {
  for (const Mechanism mech :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kSharedMemory}) {
    BigWorld w;
    constexpr int kThreads = 6, kRounds = 8;
    std::vector<std::vector<long>> tokens(kThreads);
    int found = 0;
    for (int t = 0; t < kThreads; ++t) {
      sim::detach(mixed_worker(&w, static_cast<ProcId>(50 + t), 300 + t,
                               kRounds, mech, &tokens[t], &found));
    }
    w.eng.run();

    // Every inserted key was found again.
    EXPECT_EQ(found, kThreads * kRounds);
    // Counting-network tokens are exactly 0..n-1 across threads.
    std::set<long> all;
    for (const auto& v : tokens) all.insert(v.begin(), v.end());
    EXPECT_EQ(all.size(),
              static_cast<std::size_t>(kThreads * kRounds));
    EXPECT_EQ(*all.begin(), 0);
    EXPECT_EQ(*all.rbegin(), kThreads * kRounds - 1);
    EXPECT_TRUE(w.cn.has_step_property());
    // The B-tree holds exactly the token-derived keys.
    std::string why;
    EXPECT_TRUE(w.bt.check_invariants(&why)) << why;
    EXPECT_EQ(w.bt.num_keys(), all.size());
  }
}

TEST(Integration, CoherenceAndRuntimeTrafficShareTheNetwork) {
  BigWorld w;
  std::vector<long> tokens;
  int found = 0;
  sim::detach(mixed_worker(&w, 50, 1, 6, Mechanism::kSharedMemory, &tokens,
                           &found));
  sim::detach(
      mixed_worker(&w, 51, 2, 6, Mechanism::kMigration, &tokens, &found));
  w.eng.run();
  // Both traffic classes flowed over the same mesh.
  EXPECT_GT(w.net.stats().coherence_words, 0u);
  EXPECT_GT(w.net.stats().runtime_words, 0u);
  EXPECT_EQ(w.net.stats().words,
            w.net.stats().coherence_words + w.net.stats().runtime_words);
  EXPECT_EQ(found, 12);
}

TEST(Integration, MixedMechanismsAgreeOnSharedState) {
  // Three workers, each using a different mechanism, all feeding the same
  // counting network and B-tree concurrently: semantics must still hold.
  BigWorld w;
  std::vector<std::vector<long>> tokens(3);
  int found = 0;
  const Mechanism mechs[] = {Mechanism::kRpc, Mechanism::kMigration,
                             Mechanism::kSharedMemory};
  for (int t = 0; t < 3; ++t) {
    sim::detach(mixed_worker(&w, static_cast<ProcId>(55 + t), 900 + t, 10,
                             mechs[t], &tokens[t], &found));
  }
  w.eng.run();
  std::set<long> all;
  for (const auto& v : tokens) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 30u);  // exactly-once even across mixed mechanisms
  EXPECT_EQ(found, 30);
  EXPECT_TRUE(w.bt.check_invariants());
}

TEST(Integration, DeterministicEndToEnd) {
  auto run = [] {
    BigWorld w;
    std::vector<long> tokens;
    int found = 0;
    for (int t = 0; t < 4; ++t) {
      sim::detach(mixed_worker(&w, static_cast<ProcId>(52 + t), 40 + t, 6,
                               Mechanism::kMigration, &tokens, &found));
    }
    w.eng.run();
    return std::tuple{w.eng.now(), w.net.stats().words, tokens.size()};
  };
  EXPECT_EQ(run(), run());
}

// Replication, mobility and the chooser working against the same objects.
TEST(Integration, ReplicationAndMobilityCoexist) {
  apps::Stack w(8, on_mesh(Mechanism::kRpc));
  const core::ObjectId hot = w.objects.create(0);
  core::Replicated repl(w.rt, hot, 12);
  const core::ObjectId roving = w.objects.create(1);
  core::MobileObject mob(w.rt, roving, 8);
  core::AdaptiveChooser chooser;

  bool done = false;
  sim::detach([](core::Runtime* rt, core::Replicated* repl,
                 core::MobileObject* mob, core::AdaptiveChooser* ch,
                 bool* done) -> Task<> {
    Ctx ctx{rt, 5};
    for (int i = 0; i < 20; ++i) {
      co_await repl->ensure(ctx);  // local replica read
      ch->record(repl->primary(), ctx.proc, false);
      co_await mob->attract(ctx);  // drag the roving object here
      ch->record(mob->id(), ctx.proc, true);
    }
    *done = true;
  }(&w.rt, &repl, &mob, &chooser, &done));
  w.eng.run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(repl.valid_at(5));
  EXPECT_EQ(mob.home(), 5u);
  EXPECT_EQ(mob.moves(), 1u);
  // Both objects were touched by a single processor only, so the chooser's
  // dominant-accessor rule recommends attracting each of them — correct
  // here: one move makes every later access local.
  EXPECT_EQ(chooser.recommend(repl.primary(), 8, 12),
            Mechanism::kObjectMigration);
  EXPECT_EQ(chooser.recommend(mob.id(), 8, 8),
            Mechanism::kObjectMigration);
}

}  // namespace
}  // namespace cm
