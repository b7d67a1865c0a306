#include "core/mobile.h"

#include <gtest/gtest.h>

#include "apps/workload.h"

namespace cm::core {
namespace {

using sim::ProcId;
using sim::Task;

using World = apps::Stack;

Task<> attract_from(World* w, MobileObject* m, ProcId p) {
  Ctx ctx{&w->rt, p};
  co_await m->attract(ctx);
}

TEST(MobileObject, LocalAttractIsFree) {
  World w(4);
  MobileObject m(w.rt, w.objects.create(2), 16);
  sim::detach(attract_from(&w, &m, 2));
  w.eng.run();
  EXPECT_EQ(m.home(), 2u);
  EXPECT_EQ(m.moves(), 0u);
  EXPECT_EQ(w.net.stats().messages, 0u);
}

TEST(MobileObject, RemoteAttractMovesObjectInTwoMessages) {
  World w(4);
  const ObjectId id = w.objects.create(2);
  MobileObject m(w.rt, id, 16);
  sim::detach(attract_from(&w, &m, 0));
  w.eng.run();
  EXPECT_EQ(m.home(), 0u);
  EXPECT_EQ(w.objects.home_of(id), 0u);
  EXPECT_EQ(m.moves(), 1u);
  EXPECT_EQ(w.net.stats().messages, 2u);  // control request + object state
  EXPECT_EQ(w.rt.stats().object_moves, 1u);
  EXPECT_EQ(w.rt.stats().moved_object_words, 16u);
}

TEST(MobileObject, SecondAttractFromSameProcIsFree) {
  World w(4);
  MobileObject m(w.rt, w.objects.create(2), 16);
  sim::detach(attract_from(&w, &m, 0));
  w.eng.run();
  const auto msgs = w.net.stats().messages;
  sim::detach(attract_from(&w, &m, 0));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, msgs);
  EXPECT_EQ(m.moves(), 1u);
}

TEST(MobileObject, PingPongBetweenProcessors) {
  World w(4);
  MobileObject m(w.rt, w.objects.create(3), 8);
  for (int round = 0; round < 5; ++round) {
    sim::detach(attract_from(&w, &m, 0));
    w.eng.run();
    sim::detach(attract_from(&w, &m, 1));
    w.eng.run();
  }
  EXPECT_EQ(m.moves(), 10u);
  EXPECT_EQ(m.home(), 1u);
}

TEST(MobileObject, ConcurrentAttractsSerialiseAndConverge) {
  World w(8);
  MobileObject m(w.rt, w.objects.create(7), 8);
  for (ProcId p = 0; p < 4; ++p) sim::detach(attract_from(&w, &m, p));
  w.eng.run();
  // Everyone completed; the object ends at one of the requesters and moved
  // at most once per requester.
  EXPECT_LT(m.home(), 4u);
  EXPECT_LE(m.moves(), 4u);
  EXPECT_GE(m.moves(), 1u);
}

TEST(MobileObject, RacingAttractorsFromOneProcessorMoveOnce) {
  World w(4);
  const ObjectId id = w.objects.create(3);
  MobileObject m(w.rt, id, 16);
  // Both attractors pass the free locality check (the object is at 3) and
  // queue on the transfer lock; the second one's post-lock re-check finds
  // the object already here and pays nothing further.
  sim::detach(attract_from(&w, &m, 0));
  sim::detach(attract_from(&w, &m, 0));
  w.eng.run();
  EXPECT_EQ(m.home(), 0u);
  EXPECT_EQ(m.moves(), 1u);
  EXPECT_EQ(w.rt.stats().object_moves, 1u);
  EXPECT_EQ(w.rt.stats().moved_object_words, 16u);
  EXPECT_EQ(w.net.stats().messages, 2u);  // one control + one state transfer
}

TEST(MobileObject, RacingAttractorsFromTwoProcessorsMoveTwice) {
  World w(4);
  const ObjectId id = w.objects.create(3);
  MobileObject m(w.rt, id, 16);
  // Distinct destinations: the second mover's post-lock re-check finds the
  // object at the first mover's processor and performs a second full move.
  sim::detach(attract_from(&w, &m, 0));
  sim::detach(attract_from(&w, &m, 1));
  w.eng.run();
  EXPECT_LT(m.home(), 2u);
  EXPECT_EQ(m.moves(), 2u);
  EXPECT_EQ(w.rt.stats().object_moves, 2u);
  EXPECT_EQ(w.rt.stats().moved_object_words, 32u);
  EXPECT_EQ(w.net.stats().messages, 4u);
}

TEST(MobileObject, BigObjectsTakeLongerToMove) {
  auto move_time = [](unsigned words) {
    World w(2);
    MobileObject m(w.rt, w.objects.create(1), words);
    sim::detach(attract_from(&w, &m, 0));
    w.eng.run();
    return w.eng.now();
  };
  EXPECT_LT(move_time(4), move_time(512));
}

TEST(MobileObject, CallAfterAttractIsLocal) {
  World w(4);
  const ObjectId id = w.objects.create(3);
  MobileObject m(w.rt, id, 8);
  bool done = false;
  sim::detach([](World* w, MobileObject* m, ObjectId id,
                 bool* done) -> Task<> {
    Ctx ctx{&w->rt, 0};
    co_await m->attract(ctx);
    const auto msgs = w->net.stats().messages;
    (void)co_await w->rt.call(ctx, id, CallOpts{2, 2, true},
                              [w](Ctx& c) -> Task<int> {
                                co_await w->rt.compute(c, 5);
                                co_return 0;
                              });
    EXPECT_EQ(w->net.stats().messages, msgs);  // no traffic: it is here
    *done = true;
  }(&w, &m, id, &done));
  w.eng.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace cm::core
