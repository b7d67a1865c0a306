// Reliable-transport unit tests: ack/timeout/retransmit behaviour under
// surgical fault plans (certain loss on one link, ack-only loss, duplicate
// storms), the migration fallback path, and the no-overhead guarantee when
// reliability is disabled.
#include "core/reliable.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <string>
#include <tuple>
#include <vector>

#include "apps/workload.h"
#include "check/checker.h"
#include "core/metrics.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/constant_net.h"
#include "net/faulty_net.h"
#include "sim/task.h"

namespace cm::core {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

/// A bare machine under an active fault plan: its network is wrapped in a
/// FaultyNetwork, and the reliable transport is on.
struct ChaosWorld : apps::Stack {
  explicit ChaosWorld(ProcId nprocs, net::FaultPlan plan,
                      ReliableConfig rcfg = {})
      : Stack(nprocs, chaos(std::move(plan), rcfg)) {}

  static apps::StackConfig chaos(net::FaultPlan plan, ReliableConfig rcfg) {
    apps::StackConfig cfg = apps::bare_config();
    cfg.faults = std::move(plan);
    cfg.reliable = rcfg;
    return cfg;
  }
};

Task<> transfer_once(Runtime* rt, ProcId src, ProcId dst, unsigned words,
                     bool* ok) {
  *ok = co_await rt->transfer(src, dst, words);
}

TEST(ReliableTransport, CleanNetworkDeliversWithOneDataAndOneAck) {
  // The plan is active but its fault window is empty, so the wrapper and
  // the reliable layer engage, but no message is ever perturbed.
  net::FaultPlan plan;
  plan.rates.drop = 1.0;
  plan.window_end = 0;
  ChaosWorld w(4, plan);
  bool ok = false;
  sim::detach(transfer_once(&w.rt, 0, 1, 8, &ok));
  w.eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.rt.stats().reliable_sends, 1u);
  EXPECT_EQ(w.rt.stats().retransmits, 0u);
  EXPECT_EQ(w.rt.stats().timeouts_fired, 0u);
  EXPECT_EQ(w.rt.stats().acks_sent, 1u);
  EXPECT_EQ(w.net.stats().messages, 2u);  // DATA + ACK
}

TEST(ReliableTransport, RetransmitsThroughLossUntilDelivered) {
  net::FaultPlan plan;
  plan.rates.drop = 0.5;
  plan.seed = 42;
  ChaosWorld w(4, plan, ReliableConfig{.base_timeout = 100});
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    sim::detach([](Runtime* rt, int* done) -> Task<> {
      if (co_await rt->transfer(0, 1, 8)) ++*done;
    }(&w.rt, &done));
  }
  w.eng.run();
  EXPECT_EQ(done, 50);  // every transfer eventually lands
  EXPECT_GT(w.rt.stats().retransmits, 0u);
  EXPECT_GT(w.rt.stats().timeouts_fired, 0u);
}

TEST(ReliableTransport, AckLossCausesDedupNotDoubleResume) {
  // Forward link is clean; the reverse (ack) link always loses the first
  // copies: drop rate 1.0 inside a window that covers the first ack only.
  net::FaultPlan plan;
  plan.link_overrides[{1, 0}] = net::FaultRates{.drop = 1.0};
  plan.window_end = 50;  // after t=50 acks get through
  ChaosWorld w(4, plan, ReliableConfig{.base_timeout = 100});
  int resumes = 0;
  sim::detach([](Runtime* rt, int* resumes) -> Task<> {
    (void)co_await rt->transfer(0, 1, 8);
    ++*resumes;
  }(&w.rt, &resumes));
  w.eng.run();
  EXPECT_EQ(resumes, 1);  // exactly-once resume despite retransmission
  EXPECT_GT(w.rt.stats().retransmits, 0u);
  EXPECT_GT(w.rt.stats().dedup_hits, 0u);
  EXPECT_EQ(w.rt.stats().stale_deliveries, 0u);
}

TEST(ReliableTransport, DuplicateStormResumesOnce) {
  net::FaultPlan plan;
  plan.rates.duplicate = 1.0;  // every message cloned, DATA and ACK alike
  ChaosWorld w(4, plan);
  int resumes = 0;
  sim::detach([](Runtime* rt, int* resumes) -> Task<> {
    (void)co_await rt->transfer(0, 1, 8);
    ++*resumes;
  }(&w.rt, &resumes));
  w.eng.run();
  EXPECT_EQ(resumes, 1);
  EXPECT_GE(w.rt.stats().dedup_hits, 1u);
}

/// One reliable send of 8 words from `src` to `dst`: note what it
/// returned, and count the sender's resumes.
Task<> send_once(ReliableTransport* t, unsigned budget, bool* ok,
                 int* resumes, ProcId src = 0, ProcId dst = 1) {
  auto sent = sim::suspend_to([=](std::coroutine_handle<> h) {
    t->send(src, dst, 8, budget, /*deadline=*/0, ok, h);
  });
  co_await sent;
  ++*resumes;
}

/// A send whose ack lands on its deadline's cycle: data and ack take 10
/// cycles each, and the deadline is 20. The sender runs in an event homed
/// at `src`, so the deadline takes lane src + 1 and the ack, sent from the
/// data's arrival at `dst`, lane dst + 1: label order puts the ack ahead
/// of the deadline when src > dst, behind it when src < dst.
struct AckOnItsDeadline {
  sim::Engine eng;
  net::ConstantNetwork wire{eng, {.launch = 10, .per_word = 0}};
  RtStats stats;
  ReliableTransport transport{eng, wire, stats, {.base_timeout = 20}};
  bool ok = false;
  int resumes = 0;

  AckOnItsDeadline(ProcId src, ProcId dst) {
    eng.at_on(src, 0, [this, src, dst] {
      sim::detach(send_once(&transport, 0, &ok, &resumes, src, dst));
    });
    eng.run();
  }
};

TEST(ReliableTransport, AnAckAheadOfItsDeadlineStopsTheRetransmission) {
  AckOnItsDeadline w(/*src=*/1, /*dst=*/0);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.resumes, 1);
  EXPECT_EQ(w.eng.now(), 20u);  // the deadline ran, after the ack
  EXPECT_EQ(w.stats.timeouts_fired, 0u);
  EXPECT_EQ(w.stats.retransmits, 0u);
  EXPECT_EQ(w.stats.acks_sent, 1u);
  EXPECT_EQ(w.stats.dedup_hits, 0u);
}

TEST(ReliableTransport, AnAckBehindItsDeadlineLetsOneRetransmissionGo) {
  // The deadline at 20 retransmits and doubles the timeout; the ack then
  // settles the send, the copy (arriving at 30) is deduped and acked, and
  // the next deadline (60) finds the send acked.
  AckOnItsDeadline w(/*src=*/0, /*dst=*/1);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.resumes, 1);
  EXPECT_EQ(w.eng.now(), 60u);
  EXPECT_EQ(w.stats.timeouts_fired, 1u);
  EXPECT_EQ(w.stats.retransmits, 1u);
  EXPECT_EQ(w.stats.dedup_hits, 1u);
  EXPECT_EQ(w.stats.acks_sent, 2u);
  EXPECT_EQ(w.stats.stale_deliveries, 0u);
}

TEST(ReliableTransport, DuplicateAfterTheAckIsDedupedByItsRecord) {
  // A wire without latency: the data copy and its ack land at cycle 0, and
  // the duplicate the fault layer defers arrives later, on the same seq
  // record, which the ack has already settled.
  sim::Engine eng;
  net::ConstantNetwork wire(eng, {.launch = 0, .per_word = 0});
  net::FaultPlan plan;
  plan.link_overrides[{0, 1}] = net::FaultRates{.duplicate = 1.0};
  net::FaultyNetwork net(eng, wire, plan);
  RtStats stats;
  ReliableTransport transport(eng, net, stats, {});
  bool ok = false;
  int resumes = 0;
  sim::detach(send_once(&transport, 0, &ok, &resumes));
  eng.run_until(0);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(stats.acks_sent, 1u);
  EXPECT_EQ(stats.dedup_hits, 0u);
  eng.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.acks_sent, 2u);  // the duplicate is acked too
  EXPECT_EQ(stats.stale_deliveries, 0u);
  EXPECT_EQ(stats.retransmits, 0u);
}

TEST(ReliableTransport, CopiesAfterTheSenderGaveUpAreDiscarded) {
  // One attempt allowed and a 5-cycle ack deadline, while the fault layer
  // holds the data back and duplicates it: the sender gives up first and
  // resumes once, with false. The first copy to arrive is then a stale
  // delivery, the second a dedup hit, and both are acked.
  sim::Engine eng;
  net::ConstantNetwork wire(eng);
  net::FaultPlan plan;
  plan.link_overrides[{0, 1}] =
      net::FaultRates{.duplicate = 1.0, .delay = 1.0};
  net::FaultyNetwork net(eng, wire, plan);
  RtStats stats;
  ReliableTransport transport(eng, net, stats, {.base_timeout = 5});
  bool ok = true;
  int resumes = 0;
  sim::detach(send_once(&transport, /*budget=*/1, &ok, &resumes));
  eng.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(stats.delivery_failures, 1u);
  EXPECT_EQ(stats.stale_deliveries, 1u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.acks_sent, 2u);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(net.stats().faults_delayed, 1u);
}

TEST(ReliableTransport, ExhaustedBudgetAfterADeliveredCopyIsNoFailure) {
  // Two attempts allowed, and every ack on the reverse link is lost: the
  // first data copy arrives and resumes the sender with true, the second is
  // a dedup hit, and the budget then runs out on a send that already
  // succeeded. That is no delivery failure, and the checker excuses no seq.
  sim::Engine eng;
  net::ConstantNetwork wire(eng);
  check::Checker checker(eng, 2);
  eng.set_checker(&checker);
  net::FaultPlan plan;
  plan.link_overrides[{1, 0}] = net::FaultRates{.drop = 1.0};
  net::FaultyNetwork net(eng, wire, plan);
  RtStats stats;
  ReliableTransport transport(eng, net, stats, {.base_timeout = 100});
  bool ok = false;
  int resumes = 0;
  sim::detach(send_once(&transport, /*budget=*/2, &ok, &resumes));
  eng.run();
  checker.finalize();
  EXPECT_TRUE(ok);
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(stats.delivery_failures, 0u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(checker.stats().seqs_abandoned, 0u);
  EXPECT_EQ(checker.stats().total_violations, 0u);
}

Task<> migrate_once(Runtime* rt, ObjectId obj, ProcId from, ProcId* end) {
  Ctx ctx{rt, from};
  co_await rt->migrate(ctx, obj, 8);
  *end = ctx.proc;
}

TEST(ReliableTransport, MigrationSurvivesTransientLoss) {
  net::FaultPlan plan;
  plan.rates.drop = 0.5;
  plan.seed = 7;
  ChaosWorld w(4, plan, ReliableConfig{.base_timeout = 100});
  const ObjectId obj = w.objects.create(3);
  ProcId end = 99;
  sim::detach(migrate_once(&w.rt, obj, 0, &end));
  w.eng.run();
  EXPECT_EQ(end, 3u);
  EXPECT_EQ(w.rt.stats().migrations, 1u);
  EXPECT_EQ(w.rt.stats().migration_fallbacks, 0u);
}

TEST(ReliableTransport, MoveBudgetExhaustionFallsBackToStayingPut) {
  // The link to the object's home is permanently dead: the MOVE exhausts
  // its budget and the activation stays where it was — the annotation
  // degrades to plain RPC instead of wedging the caller forever.
  net::FaultPlan plan;
  plan.link_overrides[{0, 3}] = net::FaultRates{.drop = 1.0};
  ChaosWorld w(4, plan,
               ReliableConfig{.base_timeout = 50, .move_retry_budget = 3});
  const ObjectId obj = w.objects.create(3);
  ProcId end = 99;
  sim::detach(migrate_once(&w.rt, obj, 0, &end));
  w.eng.run();
  EXPECT_EQ(end, 0u);  // never moved
  EXPECT_EQ(w.rt.stats().migrations, 0u);
  EXPECT_EQ(w.rt.stats().migration_fallbacks, 1u);
  EXPECT_EQ(w.rt.stats().delivery_failures, 1u);
  EXPECT_EQ(w.rt.stats().retransmits, 2u);  // budget 3 = 1 try + 2 retries
}

/// A MOVE from processor 0 to processor 3 over a dead link, with a budget
/// of 3 attempts, through `migrate` or as a `migrate_group` of one: the
/// traffic, the exported runtime counters and the end processor.
std::tuple<std::uint64_t, std::string, ProcId> exhausted_move(bool as_group) {
  net::FaultPlan plan;
  plan.link_overrides[{0, 3}] = net::FaultRates{.drop = 1.0};
  ChaosWorld w(4, plan,
               ReliableConfig{.base_timeout = 50, .move_retry_budget = 3});
  const ObjectId obj = w.objects.create(3);
  ProcId end = 99;
  sim::detach([](Runtime* rt, ObjectId obj, bool as_group,
                 ProcId* end) -> Task<> {
    Ctx ctx{rt, 0};
    std::vector<Ctx*> group{&ctx};
    if (as_group) {
      co_await rt->migrate_group(group, obj, 8);
    } else {
      co_await rt->migrate(ctx, obj, 8);
    }
    *end = ctx.proc;
  }(&w.rt, obj, as_group, &end));
  w.eng.run();
  Metrics m;
  put_rt_stats(m, w.rt.stats());
  std::string stats;
  m.append_json_fields(stats);
  return {w.net.stats().messages, stats, end};
}

TEST(ReliableTransport, ExhaustedMoveIsTheSameForMigrateAndAGroupOfOne) {
  const auto alone = exhausted_move(false);
  EXPECT_EQ(alone, exhausted_move(true));
  EXPECT_EQ(std::get<2>(alone), 0u);  // never moved
}

TEST(ReliableTransport, GroupMoveFallsBackTogether) {
  net::FaultPlan plan;
  plan.link_overrides[{0, 2}] = net::FaultRates{.drop = 1.0};
  ChaosWorld w(4, plan,
               ReliableConfig{.base_timeout = 50, .move_retry_budget = 2});
  const ObjectId obj = w.objects.create(2);
  ProcId a_end = 99, b_end = 99;
  sim::detach([](Runtime* rt, ObjectId obj, ProcId* a_end,
                 ProcId* b_end) -> Task<> {
    Ctx a{rt, 0};
    Ctx b{rt, 0};
    std::vector<Ctx*> group{&a, &b};
    co_await rt->migrate_group(group, obj, 20);
    *a_end = a.proc;
    *b_end = b.proc;
  }(&w.rt, obj, &a_end, &b_end));
  w.eng.run();
  EXPECT_EQ(a_end, 0u);
  EXPECT_EQ(b_end, 0u);
  EXPECT_EQ(w.rt.stats().migration_fallbacks, 1u);
}

TEST(ReliableTransport, RpcCompletesCorrectlyUnderLoss) {
  net::FaultPlan plan;
  plan.rates.drop = 0.4;
  plan.seed = 11;
  ChaosWorld w(4, plan, ReliableConfig{.base_timeout = 100});
  const ObjectId obj = w.objects.create(2);
  int result = -1;
  sim::detach([](Runtime* rt, ObjectId obj, int* result) -> Task<> {
    Ctx ctx{rt, 0};
    *result = co_await rt->call(ctx, obj, CallOpts{4, 2, false},
                                [rt](Ctx& callee) -> Task<int> {
                                  co_await rt->compute(callee, 10);
                                  co_return static_cast<int>(callee.proc);
                                });
  }(&w.rt, obj, &result));
  w.eng.run();
  EXPECT_EQ(result, 2);  // the RPC ran at the object's home and returned
}

TEST(Runtime, ReliabilityDisabledAddsNoMessagesOrCycles) {
  // Two identical worlds, one raw and one whose reliable layer exists but is
  // never enabled: identical traffic, identical busy cycles, identical time.
  auto run = [] {
    apps::Stack w(4);
    const ObjectId obj = w.objects.create(3);
    ProcId end = 0;
    sim::detach(migrate_once(&w.rt, obj, 0, &end));
    w.eng.run();
    return std::tuple{w.eng.now(), w.net.stats().messages,
                      w.net.stats().words, w.machine.total_busy()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cm::core
