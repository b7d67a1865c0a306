// Unit tests for the placement policy (src/policy): sampler determinism
// and parking, rebalancer moves with migration hysteresis (cooldown,
// degree-of-migration cap), bounce feedback into the adaptive chooser,
// phase-detector replication flips, observe-only mode, the named-tunable
// CLI surface, and the checker's policy invariants.
#include "policy/policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/btree.h"
#include "apps/workload.h"
#include "check/checker.h"
#include "core/adaptive.h"
#include "core/mechanism.h"
#include "core/mobile.h"
#include "sim/engine.h"

namespace cm::policy {
namespace {

using core::MobileObject;
using core::ObjectId;
using sim::ProcId;

using World = apps::Stack;

PolicyConfig fast_cfg() {
  PolicyConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval = 1'000;
  cfg.global_every = 1;  // every pass is global: decisions come quickly
  cfg.idle_stop_after = 2;
  cfg.min_accesses = 4;
  return cfg;
}

/// Drive `n` profiled accesses as events at the object's home processor
/// (mirroring how apps call on_access from instance-method bodies).
void drive_accesses(World& w, PolicyEngine& pol, ObjectId id, ProcId home,
                    ProcId accessor, sim::Cycles from, int n, bool write) {
  for (int i = 0; i < n; ++i) {
    w.eng.at_on(home, from + static_cast<sim::Cycles>(i),
                [&pol, id, accessor, write] {
                  pol.on_access(id, accessor, write);
                });
  }
}

// ---------------------------------------------------------------------------
// Sampler: parks when idle, drains the engine, counts deterministically
// ---------------------------------------------------------------------------

TEST(PolicySampler, ParksWhenIdleAndCountsDeterministically) {
  auto run = [] {
    World w(4);
    PolicyConfig cfg = fast_cfg();
    PolicyEngine pol(w.rt, cfg);
    pol.start();
    w.eng.run();  // returning at all proves every sampler parked
    return pol.stats();
  };
  const PolicyStats a = run();
  const PolicyStats b = run();
  // Each of the 4 samplers ticks idle_stop_after (= 2) times, then parks.
  EXPECT_EQ(a.samples, 8u);
  // Every pass is global: 8 load reports fill the 4-entry board twice.
  EXPECT_EQ(a.load_reports, 8u);
  EXPECT_EQ(a.broadcast_rounds, 2u);
  EXPECT_EQ(a.digests, 8u);
  EXPECT_EQ(a.moves_issued, 0u);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.load_reports, b.load_reports);
  EXPECT_EQ(a.broadcast_rounds, b.broadcast_rounds);
  EXPECT_EQ(a.digests, b.digests);
}

TEST(PolicySampler, AccessRevivesParkedSampler) {
  World w(2);
  const ObjectId id = w.objects.create(1);
  MobileObject mob(w.rt, id, 8);
  PolicyConfig cfg = fast_cfg();
  cfg.rebalance = false;
  PolicyEngine pol(w.rt, cfg);
  pol.manage(id, &mob, 8, false);
  pol.start();
  // Both samplers park after 2 idle ticks (by ~2000); a lone access at
  // 10000 must revive proc 1's sampler for at least one more pass.
  drive_accesses(w, pol, id, 1, 0, 10'000, 1, /*write=*/false);
  w.eng.run();
  const PolicyStats st = pol.stats();
  EXPECT_GT(st.samples, 4u);  // 2 per proc parked + revived passes
  EXPECT_EQ(st.accesses, 1u);
  EXPECT_EQ(st.remote_accesses, 1u);
}

// ---------------------------------------------------------------------------
// Rebalancer: moves, hysteresis, cap, bounce feedback
// ---------------------------------------------------------------------------

TEST(PolicyRebalancer, MovesHotObjectToDominantRemoteAccessor) {
  World w(4);
  const ObjectId id = w.objects.create(2);
  MobileObject mob(w.rt, id, 16);
  PolicyEngine pol(w.rt, fast_cfg());
  pol.manage(id, &mob, 16, false);
  pol.start();
  drive_accesses(w, pol, id, 2, 0, 100, 8, /*write=*/false);
  w.eng.run();
  EXPECT_EQ(w.objects.home_of(id), 0u);
  EXPECT_EQ(mob.home(), 0u);
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.decisions, 1u);
  EXPECT_EQ(st.moves_issued, 1u);
  EXPECT_EQ(st.moves_completed, 1u);
  EXPECT_EQ(st.remote_accesses, 8u);
  EXPECT_EQ(st.managed, 1u);
}

TEST(PolicyRebalancer, CooldownSuppressesRepeatMovesAndRecordsRebounce) {
  World w(4);
  const ObjectId id = w.objects.create(2);
  MobileObject mob(w.rt, id, 16);
  PolicyConfig cfg = fast_cfg();
  cfg.cooldown = 1'000'000;  // nothing re-moves inside this test
  PolicyEngine pol(w.rt, cfg);
  pol.manage(id, &mob, 16, false);
  pol.start();
  // Hot from proc 0: the first global pass moves the object there.
  drive_accesses(w, pol, id, 2, 0, 100, 8, /*write=*/false);
  // Then hot from proc 1 at the new home: the move verdict repeats but the
  // cooldown suppresses it, and the immediate wish to leave again is
  // reported to the chooser as a bounce.
  drive_accesses(w, pol, id, 0, 1, 2'500, 8, /*write=*/false);
  w.eng.run();
  EXPECT_EQ(w.objects.home_of(id), 0u);  // still at the first destination
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.moves_issued, 1u);
  EXPECT_GE(st.suppressed_cooldown, 1u);
  EXPECT_EQ(st.rebounces, 1u);
  EXPECT_GT(pol.chooser().bounce_rate(id), 0.0);
}

TEST(PolicyRebalancer, DegreeOfMigrationCapsMovesPerPass) {
  World w(4);
  PolicyConfig cfg = fast_cfg();
  cfg.degree_of_migration = 1;
  cfg.min_accesses = 2;
  PolicyEngine pol(w.rt, cfg);
  std::vector<std::unique_ptr<MobileObject>> mobs;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(w.objects.create(2));
    mobs.push_back(std::make_unique<MobileObject>(w.rt, ids.back(), 8));
    pol.manage(ids.back(), mobs.back().get(), 8, false);
  }
  pol.start();
  for (const ObjectId id : ids) {
    drive_accesses(w, pol, id, 2, 0, 100, 4, /*write=*/false);
  }
  w.eng.run();
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.decisions, 3u);
  EXPECT_EQ(st.moves_issued, 1u);
  EXPECT_EQ(st.suppressed_cap, 2u);
  unsigned moved = 0;
  for (const ObjectId id : ids) moved += w.objects.home_of(id) == 0 ? 1 : 0;
  EXPECT_EQ(moved, 1u);
}

TEST(PolicyRebalancer, ObserveOnlyDecidesButNeverActuates) {
  World w(4);
  const ObjectId id = w.objects.create(2);
  MobileObject mob(w.rt, id, 16);
  PolicyConfig cfg = fast_cfg();
  cfg.observe_only = true;
  PolicyEngine pol(w.rt, cfg);
  pol.manage(id, &mob, 16, false);
  pol.start();
  drive_accesses(w, pol, id, 2, 0, 100, 8, /*write=*/false);
  w.eng.run();
  EXPECT_EQ(w.objects.home_of(id), 2u);  // untouched
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.decisions, 1u);
  EXPECT_EQ(st.moves_issued, 0u);
  EXPECT_EQ(st.moves_completed, 0u);
}

// ---------------------------------------------------------------------------
// Phase detector: READ edge flips replication on, UPDATE edge flips it off
// ---------------------------------------------------------------------------

TEST(PolicyPhase, FlipsOnReadPhaseAndBackOnWriteBurst) {
  World w(4);
  const ObjectId id = w.objects.create(1);
  MobileObject mob(w.rt, id, 16);
  PolicyConfig cfg = fast_cfg();
  cfg.rebalance = false;
  cfg.phase_adaptive = true;
  cfg.phase_min_accesses = 8;
  cfg.update_min_writes = 2;
  PolicyEngine pol(w.rt, cfg);
  pol.manage(id, &mob, 16, /*replicable=*/true);
  pol.start();
  // Read-mostly window -> READ edge at the 1000-cycle sample.
  drive_accesses(w, pol, id, 1, 3, 100, 10, /*write=*/false);
  w.eng.at_on(1, 1'500, [&pol, id] {
    EXPECT_TRUE(pol.replicated_mode(id));
    EXPECT_NE(pol.replica_of(id), nullptr);
    EXPECT_EQ(pol.phase_of(id), PolicyEngine::Phase::kRead);
  });
  // Write burst -> UPDATE edge at the 2000-cycle sample flips it back.
  drive_accesses(w, pol, id, 1, 3, 1'600, 4, /*write=*/true);
  w.eng.run();
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.phase_read_edges, 1u);
  EXPECT_EQ(st.phase_update_edges, 1u);
  EXPECT_EQ(st.flips_on, 1u);
  EXPECT_EQ(st.flips_off, 1u);
  EXPECT_FALSE(pol.replicated_mode(id));
  EXPECT_EQ(pol.replica_of(id), nullptr);
  EXPECT_EQ(pol.phase_of(id), PolicyEngine::Phase::kUpdate);
}

TEST(PolicyPhase, ObserveOnlyTracksPhasesWithoutFlipping) {
  World w(2);
  const ObjectId id = w.objects.create(1);
  MobileObject mob(w.rt, id, 16);
  PolicyConfig cfg = fast_cfg();
  cfg.rebalance = false;
  cfg.phase_adaptive = true;
  cfg.phase_min_accesses = 8;
  cfg.observe_only = true;
  PolicyEngine pol(w.rt, cfg);
  pol.manage(id, &mob, 16, /*replicable=*/true);
  pol.start();
  drive_accesses(w, pol, id, 1, 0, 100, 10, /*write=*/false);
  w.eng.run();
  const PolicyStats st = pol.stats();
  EXPECT_EQ(st.phase_read_edges, 1u);  // edges are observed ...
  EXPECT_EQ(st.flips_on, 0u);          // ... but nothing actuates
  EXPECT_EQ(pol.phase_of(id), PolicyEngine::Phase::kRead);
  EXPECT_FALSE(pol.replicated_mode(id));
  EXPECT_EQ(pol.replica_of(id), nullptr);
}

// ---------------------------------------------------------------------------
// Profiles the B-tree feeds
// ---------------------------------------------------------------------------

sim::Task<> cp_update(World* w, apps::DistributedBTree* bt, bool insert,
                      std::uint64_t key) {
  core::Ctx ctx{&w->rt, 1};
  const bool changed =
      insert ? co_await bt->insert(ctx, core::Mechanism::kMigration, key, key)
             : co_await bt->remove(ctx, core::Mechanism::kMigration, key);
  EXPECT_TRUE(changed);
}

TEST(PolicyProfile, BTreeInsertAndRemoveProfileTheirLeafWriteAlike) {
  // A two-level tree whose nodes all sit on processor 0, and a requester on
  // processor 1. Under CP each update reads the root from processor 1 (a
  // remote access) and writes its leaf from processor 0, where the
  // activation arrives from the root (a local one), whether it inserts or
  // removes.
  World w(2);
  apps::DistributedBTree::Params bp;
  bp.max_entries = 4;
  bp.node_procs = 1;
  apps::DistributedBTree bt(w.rt, nullptr, bp);
  bt.bulk_load({10, 20, 30, 40, 50, 60});
  ASSERT_EQ(bt.height(), 2u);
  PolicyEngine pol(w.rt, fast_cfg());  // never started: profiles only
  bt.set_policy(&pol);

  const auto remote_accesses_of = [&](bool insert) {
    const std::uint64_t before = pol.stats().remote_accesses;
    sim::detach(cp_update(&w, &bt, insert, 15));
    w.eng.run();
    return pol.stats().remote_accesses - before;
  };
  const std::uint64_t by_insert = remote_accesses_of(true);
  const std::uint64_t by_remove = remote_accesses_of(false);
  EXPECT_EQ(by_insert, 1u);
  EXPECT_EQ(by_remove, by_insert);
  EXPECT_EQ(pol.stats().accesses, 4u);  // a root read and a leaf write each
}

// ---------------------------------------------------------------------------
// Satellite: the chooser's named-tunable CLI surface
// ---------------------------------------------------------------------------

TEST(PolicyTunables, SetTunableByName) {
  core::AdaptiveChooser::Tunables t;
  EXPECT_TRUE(core::set_tunable(t, "read_mostly_threshold", 0.3));
  EXPECT_DOUBLE_EQ(t.read_mostly_threshold, 0.3);
  EXPECT_TRUE(core::set_tunable(t, "dominant_accessor_share", 0.9));
  EXPECT_DOUBLE_EQ(t.dominant_accessor_share, 0.9);
  EXPECT_TRUE(core::set_tunable(t, "run_length_for_migration", 2.5));
  EXPECT_DOUBLE_EQ(t.run_length_for_migration, 2.5);
  EXPECT_TRUE(core::set_tunable(t, "frame_words_rpc_cutoff", 64));
  EXPECT_EQ(t.frame_words_rpc_cutoff, 64u);
  EXPECT_TRUE(core::set_tunable(t, "allow_shared_memory", 0.0));
  EXPECT_FALSE(t.allow_shared_memory);
  EXPECT_TRUE(core::set_tunable(t, "bounce_rate_cap", 0.25));
  EXPECT_DOUBLE_EQ(t.bounce_rate_cap, 0.25);
  EXPECT_FALSE(core::set_tunable(t, "no_such_tunable", 1.0));
}

// ---------------------------------------------------------------------------
// Checker invariants: cooldown violations and redundant flips
// ---------------------------------------------------------------------------

check::CheckConfig lenient() {
  check::CheckConfig cfg;
  cfg.abort_on_violation = false;
  return cfg;
}

TEST(PolicyChecker, FlagsMoveInsideCooldown) {
  sim::Engine eng;
  check::Checker ck(eng, 2, lenient());
  ck.on_policy_config(1'000);
  eng.at(10, [&ck] { ck.on_policy_move(7); });
  eng.at(500, [&ck] { ck.on_policy_move(7); });    // inside the cooldown
  eng.at(2'000, [&ck] { ck.on_policy_move(7); });  // outside: legal
  eng.run();
  ck.finalize();
  EXPECT_EQ(ck.stats().policy_moves, 3u);
  EXPECT_EQ(ck.count(check::Violation::kPolicyMoveInCooldown), 1u);
}

TEST(PolicyChecker, FlagsRedundantReplicationFlip) {
  sim::Engine eng;
  check::Checker ck(eng, 2, lenient());
  eng.at(10, [&ck] { ck.on_policy_flip(9, true); });
  eng.at(20, [&ck] { ck.on_policy_flip(9, false); });
  eng.at(30, [&ck] { ck.on_policy_flip(9, false); });  // no edge: redundant
  eng.run();
  ck.finalize();
  EXPECT_EQ(ck.stats().policy_flips, 3u);
  EXPECT_EQ(ck.count(check::Violation::kPolicyRedundantFlip), 1u);
}

}  // namespace
}  // namespace cm::policy
