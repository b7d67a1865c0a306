// Unit tests for the fail-stop crash-tolerance layer (ft::FtLayer): the
// deterministic lease/heartbeat failure detector, suspicion- and
// deadline-based send cancellation, object recovery (replica promotion,
// backup restore, condemnation) and directory-shard failover in the
// locator. Every scenario is driven by a planned NIC death in a
// net::FaultyNetwork — the host side of the "dead" processor keeps its
// state, the network just stops carrying its messages.
#include "ft/ft.h"

#include <gtest/gtest.h>

#include "core/replication.h"
#include "net/constant_net.h"
#include "net/faulty_net.h"
#include "sim/engine.h"
#include "sim/machine.h"

namespace cm::ft {
namespace {

using core::Ctx;
using core::ObjectId;
using sim::ProcId;
using sim::Task;

net::FaultPlan kill_at(ProcId p, Cycles at) {
  net::FaultPlan plan;
  plan.nic_fail_at[p] = at;
  return plan;
}

FtConfig enabled_cfg() {
  FtConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// A small machine whose interconnect can fail-stop NICs. Reliability is on
// by default (as in every chaos run) so sends to a dead peer retransmit
// until the detector cancels them instead of silently vanishing.
struct FtWorld {
  sim::Engine eng;
  sim::Machine machine;
  net::ConstantNetwork base;
  net::FaultyNetwork net;
  core::ObjectSpace objects;
  core::Runtime rt;

  FtWorld(ProcId nprocs, net::FaultPlan plan, bool reliable = true)
      : machine(eng, nprocs),
        base(eng),
        net(eng, base, std::move(plan)),
        rt(machine, net, objects, core::CostModel::software()) {
    if (reliable) rt.enable_reliability();
  }
};

Task<> send_from(FtWorld* w, ProcId src, ProcId dst, unsigned words,
                 bool* out) {
  *out = co_await w->rt.transfer(src, dst, words);
}

Task<> call_value(FtWorld* w, ObjectId obj, ProcId from, int* out) {
  Ctx ctx{&w->rt, from};
  *out = co_await w->rt.call(ctx, obj, core::CallOpts{2, 2, true},
                             [w](Ctx& c) -> Task<int> {
                               co_await w->rt.compute(c, 5);
                               co_return 42;
                             });
}

Task<> call_expect_lost(FtWorld* w, ObjectId obj, ProcId from, bool* threw,
                        ObjectId* which) {
  Ctx ctx{&w->rt, from};
  try {
    (void)co_await w->rt.call(ctx, obj, core::CallOpts{2, 2, true},
                              [w](Ctx& c) -> Task<int> {
                                co_await w->rt.compute(c, 5);
                                co_return 0;
                              });
  } catch (const core::ObjectLostError& e) {
    *threw = true;
    *which = e.object();
  }
}

Task<> ensure_from(FtWorld* w, core::Replicated* r, ProcId p) {
  Ctx ctx{&w->rt, p};
  co_await r->ensure(ctx);
}

// ---------------------------------------------------------------------------
// Installation gating
// ---------------------------------------------------------------------------

TEST(FtLayer, DisabledLayerNeverInstallsOrRuns) {
  FtWorld w(4, net::FaultPlan{});
  FtLayer ftl(w.rt, FtConfig{});  // enabled defaults to false

  EXPECT_EQ(w.rt.fault_tolerance(), nullptr);
  ftl.start();  // must be a no-op
  EXPECT_FALSE(ftl.running());
  w.eng.run();
  EXPECT_EQ(ftl.stats().heartbeats_sent, 0u);
  EXPECT_FALSE(ftl.suspected(0));
}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

TEST(FtLayer, HeartbeatsKeepLiveProcessorsUnsuspected) {
  FtWorld w(4, net::FaultPlan{});
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.start();

  w.eng.run_until(30'000);
  ftl.stop();
  w.eng.run();

  EXPECT_GT(ftl.stats().heartbeats_sent, 0u);
  EXPECT_GT(ftl.stats().leases_renewed, 0u);
  EXPECT_EQ(ftl.stats().suspicions, 0u);
  for (ProcId p = 0; p < 4; ++p) EXPECT_FALSE(ftl.suspected(p));
}

TEST(FtLayer, DetectorSuspectsPlannedFailureDeterministically) {
  constexpr Cycles kFail = 10'000;
  Cycles epochs[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    FtWorld w(4, kill_at(2, kFail));
    FtLayer ftl(w.rt, enabled_cfg());
    ftl.note_plan(w.net.plan());
    ftl.start();

    w.eng.run_until(40'000);
    ftl.stop();
    w.eng.run();

    EXPECT_TRUE(ftl.suspected(2));
    EXPECT_FALSE(ftl.suspected(0));
    EXPECT_FALSE(ftl.suspected(1));
    EXPECT_FALSE(ftl.suspected(3));
    EXPECT_EQ(ftl.stats().suspicions, 1u);
    EXPECT_EQ(ftl.stats().detected, 1u);
    EXPECT_EQ(ftl.stats().planned_failures, 1u);

    // Suspicion lands after the lease expires and before the sweep after
    // that: detection latency is bounded by the detector's parameters.
    const Cycles lease = ftl.config().heartbeat_interval *
                         ftl.config().lease_misses;
    EXPECT_GE(ftl.failure_epoch(2), kFail);
    EXPECT_LE(ftl.failure_epoch(2),
              kFail + lease + 2 * ftl.config().heartbeat_interval);
    EXPECT_GT(ftl.stats().mean_detect_latency(), 0.0);
    epochs[run] = ftl.failure_epoch(2);
  }
  EXPECT_EQ(epochs[0], epochs[1]);  // same seed, same suspicion cycle
}

// ---------------------------------------------------------------------------
// Cancellation: no send waits unboundedly on a dead peer
// ---------------------------------------------------------------------------

TEST(FtLayer, SuspectedPeerAbortsUnboundedSend) {
  // The pre-fault-tolerance hazard: ReliableTransport::send with budget 0
  // retransmits forever into a dead NIC. Both flavours must now resolve
  // false — a send already in flight when suspicion lands, and a send
  // issued afterwards (which fails fast without touching the wire).
  FtWorld w(4, kill_at(2, 1'000));
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.note_plan(w.net.plan());
  ftl.start();

  bool in_flight = true;
  bool post_suspicion = true;
  w.eng.at(2'000, [&] { sim::detach(send_from(&w, 0, 2, 4, &in_flight)); });
  w.eng.at(20'000,
           [&] { sim::detach(send_from(&w, 1, 2, 4, &post_suspicion)); });

  w.eng.run_until(30'000);
  ftl.stop();
  w.eng.run();

  EXPECT_TRUE(ftl.suspected(2));
  EXPECT_FALSE(in_flight);
  EXPECT_FALSE(post_suspicion);
  EXPECT_GE(w.rt.stats().ft_suspect_aborts, 2u);
  EXPECT_GE(w.rt.stats().delivery_failures, 2u);
}

TEST(FtLayer, TransferToSuspectedPeerFailsWithoutSchedulingAnEvent) {
  // Once the detector suspects a peer, a transfer to it yields false before
  // `co_await` returns: it suspends nothing, sends nothing and schedules no
  // event, on the raw path and the reliable one alike.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "raw");
    FtWorld w(4, kill_at(2, 1'000), reliable);
    FtLayer ftl(w.rt, enabled_cfg());
    ftl.note_plan(w.net.plan());
    ftl.start();
    w.eng.run_until(20'000);
    ftl.stop();
    w.eng.run();
    ASSERT_TRUE(ftl.suspected(2));

    const std::size_t executed = w.eng.events_executed();
    const std::uint64_t messages = w.net.stats().messages;
    const std::uint64_t aborts = w.rt.stats().ft_suspect_aborts;
    bool delivered = true;
    sim::detach(send_from(&w, 0, 2, 4, &delivered));
    EXPECT_FALSE(delivered);
    EXPECT_TRUE(w.eng.idle());
    w.eng.run();
    EXPECT_EQ(w.eng.events_executed(), executed);
    EXPECT_EQ(w.net.stats().messages, messages);
    EXPECT_EQ(w.rt.stats().ft_suspect_aborts, aborts + 1);
    EXPECT_EQ(w.rt.stats().reliable_sends, 0u);
  }
}

TEST(FtLayer, DeadlineExpiryAbortsSendBeforeSuspicion) {
  // With the detector effectively off (huge interval), only the per-send
  // deadline can cancel — and it must, long before any suspicion exists.
  FtConfig cfg = enabled_cfg();
  cfg.heartbeat_interval = 1'000'000;
  cfg.send_deadline = 3'000;
  FtWorld w(4, kill_at(2, 1'000));
  FtLayer ftl(w.rt, cfg);
  ftl.note_plan(w.net.plan());
  ftl.start();

  bool delivered = true;
  w.eng.at(2'000, [&] { sim::detach(send_from(&w, 0, 2, 4, &delivered)); });

  w.eng.run_until(20'000);
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(ftl.suspected(2));  // detector never got to run
  EXPECT_GE(w.rt.stats().ft_deadline_aborts, 1u);
  ftl.stop();
  w.eng.run();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

TEST(FtLayer, RecoveryRehomesObjectsFromDeadProcessor) {
  FtWorld w(6, kill_at(2, 5'000));
  const ObjectId a = w.objects.create(2);
  const ObjectId b = w.objects.create(2);
  const ObjectId c = w.objects.create(4);  // bystander: must not move
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.note_plan(w.net.plan());
  ftl.start();

  w.eng.run_until(40'000);
  ftl.stop();
  w.eng.run();

  EXPECT_TRUE(ftl.suspected(2));
  EXPECT_NE(w.objects.home_of(a), 2u);
  EXPECT_NE(w.objects.home_of(b), 2u);
  EXPECT_FALSE(ftl.suspected(w.objects.home_of(a)));
  EXPECT_FALSE(ftl.suspected(w.objects.home_of(b)));
  EXPECT_EQ(w.objects.home_of(c), 4u);
  EXPECT_EQ(ftl.stats().rehomes, 2u);
  EXPECT_EQ(ftl.stats().recoveries, 2u);
  EXPECT_EQ(ftl.stats().objects_lost, 0u);
  EXPECT_FALSE(ftl.recovery_pending(a));
  EXPECT_FALSE(ftl.recovery_pending(b));
  EXPECT_GT(ftl.stats().mean_rehome_latency(), 0.0);
}

TEST(FtLayer, CallOnDeadHomeRetriesAndCompletesAfterRecovery) {
  FtWorld w(4, kill_at(2, 5'000));
  const ObjectId obj = w.objects.create(2);
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.note_plan(w.net.plan());
  ftl.start();

  // Issued after the NIC dies but before suspicion: the request transfer
  // retransmits into the void, aborts at suspicion, parks on the recovery
  // window, and re-issues against the object's new home.
  int result = 0;
  w.eng.at(6'000, [&] { sim::detach(call_value(&w, obj, 0, &result)); });

  w.eng.run_until(60'000);
  ftl.stop();
  w.eng.run();

  EXPECT_EQ(result, 42);
  EXPECT_NE(w.objects.home_of(obj), 2u);
  EXPECT_GE(w.rt.stats().ft_call_retries, 1u);
  EXPECT_GE(w.rt.stats().ft_suspect_aborts, 1u);
  EXPECT_EQ(ftl.stats().recoveries, 1u);
}

TEST(FtLayer, ReplicaPromotionWinsOverBackupRestore) {
  FtWorld w(4, kill_at(2, 10'000));
  const ObjectId obj = w.objects.create(2);
  core::Replicated repl(w.rt, obj, /*object_words=*/8);
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.note_plan(w.net.plan());
  ftl.start();

  // Validate proc 1's replica while the home is still alive.
  sim::detach(ensure_from(&w, &repl, 1));

  w.eng.run_until(40'000);
  ftl.stop();
  w.eng.run();

  EXPECT_TRUE(repl.valid_at(1));
  EXPECT_EQ(repl.home(), 1u);  // lowest live processor with a valid copy
  EXPECT_EQ(w.objects.home_of(obj), 1u);
  EXPECT_EQ(ftl.stats().replica_promotions, 1u);
  EXPECT_EQ(ftl.stats().rehomes, 0u);  // promotion, not restore
  EXPECT_EQ(ftl.stats().recoveries, 1u);
}

TEST(FtLayer, LostModeCondemnsWithTypedError) {
  FtConfig cfg = enabled_cfg();
  cfg.rehome_unreplicated = false;
  FtWorld w(4, kill_at(2, 5'000));
  const ObjectId obj = w.objects.create(2);
  FtLayer ftl(w.rt, cfg);
  ftl.note_plan(w.net.plan());
  ftl.start();

  bool threw = false;
  ObjectId which = 9999;
  w.eng.at(30'000,
           [&] { sim::detach(call_expect_lost(&w, obj, 0, &threw, &which)); });

  w.eng.run_until(50'000);
  ftl.stop();
  w.eng.run();

  EXPECT_TRUE(ftl.object_lost(obj));
  EXPECT_EQ(ftl.stats().objects_lost, 1u);
  EXPECT_EQ(ftl.stats().recoveries, 0u);
  EXPECT_TRUE(threw);
  EXPECT_EQ(which, obj);
}

TEST(FtLayer, EvacuationTargetIsNextLiveRingSuccessor) {
  FtWorld w(4, kill_at(2, 5'000));
  FtLayer ftl(w.rt, enabled_cfg());
  ftl.note_plan(w.net.plan());
  ftl.start();

  w.eng.run_until(30'000);
  ftl.stop();
  w.eng.run();

  ASSERT_TRUE(ftl.suspected(2));
  EXPECT_EQ(ftl.evacuation_target(2), 3u);
  EXPECT_EQ(ftl.evacuation_target(3), 0u);  // 3 is alive; ring wraps past it
}

// ---------------------------------------------------------------------------
// Locator integration: directory failover and metadata scrubbing
// ---------------------------------------------------------------------------

TEST(FtLayer, LocatorFailsOverQueriesAndScrubsRehomedEntries) {
  FtWorld w(4, kill_at(2, 5'000));
  // ids 0..3 homed on proc 1 (shard = id % 4 under kHashHome, so id 2's
  // directory entry lives on the processor about to die); id 4 homed on
  // the dying processor itself.
  for (int i = 0; i < 4; ++i) (void)w.objects.create(1);
  const ObjectId victim = w.objects.create(2);
  loc::LocatorConfig loc_cfg;
  loc_cfg.mode = loc::Locality::kDistributed;
  loc::Locator locator(w.rt, loc_cfg);
  FtLayer ftl(w.rt, enabled_cfg(), &locator);
  ftl.note_plan(w.net.plan());
  ftl.start();

  // After suspicion: a query whose primary shard is dead re-routes to the
  // replica shard, and a call on the re-homed object resolves its new home
  // through the patched directory.
  int via_replica = 0;
  int via_rehomed = 0;
  w.eng.at(25'000, [&] { sim::detach(call_value(&w, 2, 0, &via_replica)); });
  w.eng.at(25'000,
           [&] { sim::detach(call_value(&w, victim, 0, &via_rehomed)); });

  w.eng.run_until(80'000);
  ftl.stop();
  w.eng.run();

  ASSERT_TRUE(ftl.suspected(2));
  EXPECT_EQ(via_replica, 42);
  EXPECT_EQ(via_rehomed, 42);
  EXPECT_GE(locator.stats().dir_failovers, 1u);

  // Recovery patched the directory: the entry agrees with ground truth and
  // no longer names the dead processor.
  EXPECT_NE(w.objects.home_of(victim), 2u);
  EXPECT_EQ(locator.directory_owner(victim), w.objects.home_of(victim));
  EXPECT_EQ(ftl.stats().recoveries, 1u);
}

Task<> resolve_from(FtWorld* w, loc::Locator* locator, ObjectId id,
                    ProcId from, ProcId* out) {
  Ctx ctx{&w->rt, from};
  *out = co_await locator->resolve(ctx, id);
}

TEST(FtLayer, LocatorNeverCachesAHintNamingASuspectedHost) {
  // Between suspicion and the re-home commit the directory still names the
  // dead host. A hint cached from such an answer would outlive the commit's
  // scrub whenever the answer lands after it, and then route every retry of
  // a call into the dead NIC until the call's retry budget ran out.
  FtWorld w(4, kill_at(2, 5'000));
  const ObjectId victim = w.objects.create(2);  // shard 0: proc 0 asks
  loc::LocatorConfig loc_cfg;
  loc_cfg.mode = loc::Locality::kDistributed;
  loc::Locator locator(w.rt, loc_cfg);
  FtLayer ftl(w.rt, enabled_cfg(), &locator);
  ftl.note_plan(w.net.plan());
  ftl.start();

  Cycles t = 5'000;
  while (!ftl.suspected(2)) w.eng.run_until(t += 10);
  ProcId answer = sim::kNoProc;
  sim::detach(resolve_from(&w, &locator, victim, 0, &answer));
  while (answer == sim::kNoProc) w.eng.run_until(t += 10);
  ASSERT_TRUE(ftl.recovery_pending(victim));  // still before the commit

  EXPECT_EQ(answer, 2u);  // the directory's stale answer is returned...
  EXPECT_EQ(locator.cached_hint(0, victim), std::nullopt);  // ...not cached

  w.eng.run_until(80'000);
  ftl.stop();
  w.eng.run();
  EXPECT_NE(w.objects.home_of(victim), 2u);
}

}  // namespace
}  // namespace cm::ft
