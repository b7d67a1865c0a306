#include "core/replication.h"

#include <gtest/gtest.h>

#include "apps/workload.h"
#include "sim/task.h"

namespace cm::core {
namespace {

using sim::ProcId;
using sim::Task;

using World = apps::Stack;

Task<> ensure_at(World* w, Replicated* r, ProcId p) {
  Ctx ctx{&w->rt, p};
  co_await r->ensure(ctx);
}

Task<> invalidate_from(World* w, Replicated* r, ProcId p,
                       sim::Cycles* done_at = nullptr) {
  Ctx ctx{&w->rt, p};
  co_await r->invalidate_all(ctx);
  if (done_at != nullptr) *done_at = w->eng.now();
}

TEST(Replicated, HomeAlwaysValidAndFree) {
  World w(8);
  Replicated r(w.rt, w.objects.create(3), 12);
  EXPECT_TRUE(r.valid_at(3));
  sim::detach(ensure_at(&w, &r, 3));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.rt.stats().replica_hits, 1u);
}

TEST(Replicated, FirstUseFetchesThenHits) {
  World w(8);
  Replicated r(w.rt, w.objects.create(3), 12);
  EXPECT_FALSE(r.valid_at(5));
  sim::detach(ensure_at(&w, &r, 5));
  w.eng.run();
  EXPECT_TRUE(r.valid_at(5));
  EXPECT_EQ(w.net.stats().messages, 2u);  // request + contents
  EXPECT_EQ(w.rt.stats().replica_fetches, 1u);

  sim::detach(ensure_at(&w, &r, 5));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 2u);  // no further traffic
  EXPECT_EQ(w.rt.stats().replica_hits, 1u);
}

TEST(Replicated, InvalidateAllClearsEveryRemoteReplica) {
  World w(8);
  Replicated r(w.rt, w.objects.create(0), 12);
  for (ProcId p = 1; p < 5; ++p) {
    sim::detach(ensure_at(&w, &r, p));
    w.eng.run();
  }
  const auto msgs_before = w.net.stats().messages;
  sim::detach(invalidate_from(&w, &r, 0));
  w.eng.run();
  for (ProcId p = 1; p < 5; ++p) EXPECT_FALSE(r.valid_at(p));
  EXPECT_TRUE(r.valid_at(0));
  // 4 invalidations + 4 acks.
  EXPECT_EQ(w.net.stats().messages - msgs_before, 8u);
  EXPECT_EQ(w.rt.stats().replica_invalidations, 4u);
}

TEST(Replicated, WriterResumesAfterTheLastAckOnBothBranches) {
  // Without a transport and over the reliable transport: either way the
  // writer waits for every ack, then finishes with one reply-receive charge
  // on its own processor, the run's last work.
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "raw");
    World w(8);
    if (reliable) w.rt.enable_reliability();
    Replicated r(w.rt, w.objects.create(0), 12);
    for (ProcId p = 1; p < 5; ++p) {
      sim::detach(ensure_at(&w, &r, p));
      w.eng.run();
    }
    const sim::Cycles busy0 = w.machine.proc(0).busy_cycles();
    const sim::Cycles t0 = w.eng.now();
    sim::Cycles done_at = 0;
    sim::detach(invalidate_from(&w, &r, 0, &done_at));
    w.eng.run();
    for (ProcId p = 1; p < 5; ++p) EXPECT_FALSE(r.valid_at(p));
    const CostModel c = CostModel::software();
    EXPECT_EQ(w.machine.proc(0).busy_cycles() - busy0,
              4 * c.sender_total(1) + c.reply_receive(1));
    EXPECT_GT(done_at, t0);
    if (!reliable) {
      // Four sends back to back, then the last target's round trip.
      const sim::Cycles hop = w.net.latency(0, 4, 1 + c.header_words);
      EXPECT_EQ(done_at, t0 + 4 * c.sender_total(1) + 2 * hop +
                             c.receiver_total(1, false) + c.reply_receive(1));
    }
  }
}

TEST(Replicated, FaultFreeRoundBooksWhatTheReliableRoundBooks) {
  // An invalidation round is the same transfers and charges with or without
  // the reliable transport: each books the messages' network transit and
  // the holders' handler cycles under `replication`.
  const CostModel c = CostModel::software();
  std::uint64_t transit[2] = {};
  std::uint64_t replication[2] = {};
  for (const bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "without a transport");
    World w(8);
    if (reliable) w.rt.enable_reliability();
    Replicated r(w.rt, w.objects.create(0), 12);
    for (ProcId p = 1; p < 5; ++p) {
      sim::detach(ensure_at(&w, &r, p));
      w.eng.run();
    }
    const Breakdown before = w.rt.stats().breakdown;
    sim::detach(invalidate_from(&w, &r, 0));
    w.eng.run();
    const Breakdown& after = w.rt.stats().breakdown;
    transit[reliable] = after.get(Category::kNetworkTransit) -
                        before.get(Category::kNetworkTransit);
    replication[reliable] = after.get(Category::kReplication) -
                            before.get(Category::kReplication);
    EXPECT_EQ(w.rt.stats().retransmits, 0u);
    // Four round trips of one-word messages on the constant network ...
    EXPECT_EQ(transit[reliable], 8 * w.net.latency(0, 1, 1 + c.header_words));
  }
  // ... four invalidation sends, four handlers and the writer's receive.
  EXPECT_EQ(replication[0], 4 * c.sender_total(1) +
                                4 * c.receiver_total(1, false) +
                                c.reply_receive(1));
  EXPECT_EQ(transit[0], transit[1]);
  EXPECT_EQ(replication[0], replication[1]);
}

TEST(Replicated, InvalidateWithNoReplicasIsFree) {
  World w(8);
  Replicated r(w.rt, w.objects.create(0), 12);
  sim::detach(invalidate_from(&w, &r, 0));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 0u);
}

TEST(Replicated, RefetchAfterInvalidation) {
  World w(4);
  Replicated r(w.rt, w.objects.create(0), 12);
  sim::detach(ensure_at(&w, &r, 2));
  w.eng.run();
  sim::detach(invalidate_from(&w, &r, 0));
  w.eng.run();
  const auto before = w.rt.stats().replica_fetches;
  sim::detach(ensure_at(&w, &r, 2));
  w.eng.run();
  EXPECT_EQ(w.rt.stats().replica_fetches, before + 1);
  EXPECT_TRUE(r.valid_at(2));
}

TEST(Replicated, RebindMovesPrimaryAndInvalidates) {
  World w(8);
  const ObjectId a = w.objects.create(1);
  const ObjectId b = w.objects.create(6);
  Replicated r(w.rt, a, 12);
  sim::detach(ensure_at(&w, &r, 4));
  w.eng.run();
  r.rebind(b);
  EXPECT_EQ(r.primary(), b);
  EXPECT_EQ(r.home(), 6u);
  EXPECT_FALSE(r.valid_at(4));
  EXPECT_TRUE(r.valid_at(6));
}

TEST(Replicated, FetchLatencyScalesWithObjectSize) {
  auto fetch_time = [](unsigned words) {
    World w(4);
    Replicated r(w.rt, w.objects.create(0), words);
    sim::detach(ensure_at(&w, &r, 2));
    w.eng.run();
    return w.eng.now();
  };
  EXPECT_LT(fetch_time(4), fetch_time(64));
}

}  // namespace
}  // namespace cm::core
