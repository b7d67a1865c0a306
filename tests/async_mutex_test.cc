#include "sim/async_mutex.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::sim {
namespace {

Task<> hold(AsyncMutex* m, Machine* mach, ProcId p, Cycles work,
            std::vector<int>* order, int id, int* inside, int* max_inside) {
  co_await m->lock();
  ++*inside;
  *max_inside = std::max(*max_inside, *inside);
  order->push_back(id);
  co_await mach->compute(p, work);
  --*inside;
  m->unlock();
}

TEST(AsyncMutex, UncontendedLockIsImmediate) {
  AsyncMutex m;
  EXPECT_FALSE(m.held());
  Engine eng;
  Machine mach(eng, 1);
  std::vector<int> order;
  int inside = 0, max_inside = 0;
  detach(hold(&m, &mach, 0, 5, &order, 1, &inside, &max_inside));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(m.held());
}

TEST(AsyncMutex, MutualExclusionAndFifoOrder) {
  AsyncMutex m;
  Engine eng;
  Machine mach(eng, 8);
  std::vector<int> order;
  int inside = 0, max_inside = 0;
  for (int i = 0; i < 8; ++i) {
    detach(hold(&m, &mach, static_cast<ProcId>(i), 10, &order, i, &inside,
                &max_inside));
  }
  eng.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));  // FIFO
  EXPECT_FALSE(m.held());
  EXPECT_EQ(m.waiters(), 0u);
}

TEST(AsyncMutex, HandoffKeepsHeld) {
  AsyncMutex m;
  Engine eng;
  Machine mach(eng, 2);
  std::vector<int> order;
  int inside = 0, max_inside = 0;
  detach(hold(&m, &mach, 0, 100, &order, 0, &inside, &max_inside));
  detach(hold(&m, &mach, 1, 100, &order, 1, &inside, &max_inside));
  EXPECT_TRUE(m.held());
  EXPECT_EQ(m.waiters(), 1u);
  eng.run_until(150);
  EXPECT_TRUE(m.held());  // handed to the second holder at t=100
  eng.run();
  EXPECT_FALSE(m.held());
}

TEST(AsyncMutex, QueueRefillsAfterDraining) {
  AsyncMutex m;
  Engine eng;
  Machine mach(eng, 6);
  std::vector<int> order;
  int inside = 0, max_inside = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      const int id = 3 * round + i;
      detach(hold(&m, &mach, static_cast<ProcId>(id), 10, &order, id, &inside,
                  &max_inside));
    }
    EXPECT_EQ(m.waiters(), 2u);
    eng.run();
    EXPECT_EQ(m.waiters(), 0u);
  }
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(m.held());
}

Task<> hold_twice(AsyncMutex* m, Machine* mach, ProcId p,
                  std::vector<int>* order, int id) {
  for (int pass = 0; pass < 2; ++pass) {
    co_await m->lock();
    order->push_back(id);
    co_await mach->compute(p, 10);
    m->unlock();
  }
}

TEST(AsyncMutex, RelockingHolderQueuesBehindTheWaiters) {
  AsyncMutex m;
  Engine eng;
  Machine mach(eng, 3);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    detach(hold_twice(&m, &mach, static_cast<ProcId>(i), &order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  EXPECT_FALSE(m.held());
  EXPECT_EQ(m.waiters(), 0u);
}

Task<> unlock_free(AsyncMutex* m) {
  m->unlock();
  co_return;
}

Task<> catching_logic_error(Task<> t, bool* threw) {
  try {
    co_await std::move(t);
  } catch (const std::logic_error&) {
    *threw = true;
  }
}

TEST(AsyncMutex, UnlockByANonHolderThrows) {
  // The mutex records no holder, so the misuse it sees is an unlock while
  // nobody holds it. It throws in every build type and changes nothing.
  AsyncMutex m;
  EXPECT_THROW(m.unlock(), std::logic_error);
  EXPECT_FALSE(m.held());
  EXPECT_EQ(m.waiters(), 0u);
  // From a coroutine, the error reaches its awaiter.
  bool threw = false;
  detach(catching_logic_error(unlock_free(&m), &threw));
  EXPECT_TRUE(threw);
  EXPECT_FALSE(m.held());
  // A later lock is immediate, and a second unlock after its own throws.
  AsyncMutex::Awaiter a = m.lock();
  EXPECT_TRUE(a.await_ready());
  EXPECT_TRUE(m.held());
  m.unlock();
  EXPECT_FALSE(m.held());
  EXPECT_THROW(m.unlock(), std::logic_error);
  EXPECT_FALSE(m.held());
}

TEST(AsyncMutex, ReacquireAfterRelease) {
  AsyncMutex m;
  Engine eng;
  Machine mach(eng, 1);
  std::vector<int> order;
  int inside = 0, max_inside = 0;
  for (int round = 0; round < 3; ++round) {
    detach(hold(&m, &mach, 0, 1, &order, round, &inside, &max_inside));
    eng.run();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace cm::sim
