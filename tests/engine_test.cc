#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace cm::sim {
namespace {

TEST(Engine, StartsAtZeroAndIdle) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  EXPECT_TRUE(eng.idle());
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.at(30, [&] { order.push_back(3); });
  eng.at(10, [&] { order.push_back(1); });
  eng.at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30u);
  EXPECT_EQ(eng.events_executed(), 3u);
}

TEST(Engine, EqualTimestampsRunInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    eng.at(5, [&, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, AfterSchedulesRelativeToNow) {
  Engine eng;
  Cycles observed = 0;
  eng.at(100, [&] {
    eng.after(50, [&] { observed = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(observed, 150u);
}

TEST(Engine, SchedulingAtNowIsNotAClamp) {
  // A zero-latency round-trip lands exactly on now(): legal, not counted.
  Engine eng;
  Cycles observed = 0;
  eng.at(100, [&] {
    eng.at(eng.now(), [&] { observed = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(eng.clamped_events(), 0u);
}

TEST(Engine, PastTimestampsClampToNowAndAreCounted) {
  // Scheduling strictly into the past is a causality bug: Debug builds
  // assert; Release builds clamp to now() and expose the count.
  Engine eng;
  Cycles observed = 0;
  eng.at(100, [&] {
    eng.at(10, [&] { observed = eng.now(); });  // in the past
  });
#ifdef NDEBUG
  eng.run();
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(eng.clamped_events(), 1u);
#else
  EXPECT_DEATH(eng.run(), "scheduled in the past");
#endif
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) eng.after(1, chain);
  };
  eng.after(1, chain);
  eng.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(eng.now(), 10u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  int count = 0;
  for (Cycles t = 10; t <= 100; t += 10) eng.at(t, [&] { ++count; });
  eng.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_EQ(eng.pending(), 5u);
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenQueueEmpty) {
  Engine eng;
  eng.run_until(1234);
  EXPECT_EQ(eng.now(), 1234u);
}

TEST(Engine, RunUntilDoesNotAdvancePastPendingEvents) {
  // Regression: run_until(t) used to set now() = t even with unexecuted
  // events pending past t, letting the clock run ahead of owed work. With
  // events remaining, now() must stay at the last executed event's time.
  Engine eng;
  eng.at(40, [] {});
  eng.at(90, [] {});
  eng.run_until(55);
  EXPECT_EQ(eng.now(), 40u);  // not 55: the event at 90 is still pending
  EXPECT_EQ(eng.pending(), 1u);

  // A relative schedule after the partial run hangs off the last executed
  // event's time, so it still lands before the pending event.
  Cycles fired_at = 0;
  eng.after(10, [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, 50u);
  EXPECT_EQ(eng.now(), 90u);
}

TEST(Engine, RunUntilWithNoRunnableEventsKeepsClock) {
  Engine eng;
  eng.at(100, [] {});
  eng.run_until(99);
  EXPECT_EQ(eng.now(), 0u);  // nothing executed, nothing drained
  eng.run_until(100);
  EXPECT_EQ(eng.now(), 100u);  // drained exactly at the boundary
}

TEST(Engine, RunBoundedLimitsEventCount) {
  Engine eng;
  int count = 0;
  // A self-perpetuating event: run_bounded must still terminate.
  std::function<void()> loop = [&] {
    ++count;
    eng.after(1, loop);
  };
  eng.after(1, loop);
  eng.run_bounded(25);
  EXPECT_EQ(count, 25);
}

TEST(Engine, SameCycleEventsRunInCreatorLaneOrder) {
  // Labels are (lane << 40) | count, where the lane is the creating event's
  // home processor + 1. So at one cycle, an event created by a
  // lower-numbered processor runs first, even when it was scheduled later.
  Engine eng;
  std::vector<char> order;
  constexpr Cycles kT = 100;
  eng.at_on(5, 10, [&] { eng.at(kT, [&] { order.push_back('X'); }); });
  eng.at_on(2, 20, [&] { eng.at(kT, [&] { order.push_back('Y'); }); });
  eng.run();
  EXPECT_EQ(order, (std::vector<char>{'Y', 'X'}));
}

TEST(Engine, InterleavedTimesAndInsertions) {
  // Stress the (time, seq) ordering with a deterministic pseudo-random
  // insertion pattern.
  Engine eng;
  std::vector<std::pair<Cycles, int>> fired;
  int id = 0;
  std::uint64_t x = 12345;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Cycles t = (x >> 33) % 97;
    eng.at(t, [&fired, &eng, t, me = id++] { fired.emplace_back(eng.now(), me); });
  }
  eng.run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // FIFO within a tick
    }
  }
}

}  // namespace
}  // namespace cm::sim
