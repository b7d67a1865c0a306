#include "sim/engine.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/task.h"

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
    eng.at(t, [&fired, &eng, t, me = id++] {
      fired.emplace_back(eng.now(), me);
    });
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

TEST(Engine, SameCycleEventsFromFallingLanesRunInLaneOrder) {
  // Processors 9, 8, ..., 0 each schedule one event at kT, in that order,
  // so the labels reach kT's slot falling and each one walks to the head.
  Engine eng;
  std::vector<ProcId> order;
  constexpr Cycles kT = 100;
  for (ProcId p = 0; p < 10; ++p) {
    eng.at_on(p, 10 + (9 - p), [&eng, &order, p] {
      eng.at(kT, [&order, p] { order.push_back(p); });
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<ProcId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Engine, ThousandSameCycleEventsFromOneLaneRunFifo) {
  // One lane's labels only grow, so each arrival appends at its slot's
  // tail; the order out is the order in.
  Engine eng;
  std::vector<int> order;
  eng.at_on(3, 7, [&] {
    for (int i = 0; i < 1'000; ++i) {
      eng.at(50, [&order, i] { order.push_back(i); });
    }
  });
  eng.run();
  ASSERT_EQ(order.size(), 1'000u);
  for (int i = 0; i < 1'000; ++i) EXPECT_EQ(order[i], i);
}

using Log = std::vector<std::tuple<char, ProcId, Cycles>>;

/// Suspends once, as a resume event homed at `home` at time `t`, and logs
/// where and when it came back.
Task<> resume_at(Engine* eng, Log* log, char tag, ProcId home, Cycles t) {
  co_await suspend_to([eng, home, t](std::coroutine_handle<> h) {
    eng->resume_at_on(home, t, h);
  });
  log->emplace_back(tag, eng->current_home(), eng->now());
}

/// The frame-free kind of resume event: logs where and when it ran, and
/// how often.
struct Logger : Continuation {
  Engine* eng;
  Log* log;
  char tag;
  int runs = 0;

  Logger(Engine* e, Log* l, char t) : eng(e), log(l), tag(t) {
    run = [](Continuation* c) {
      auto* const self = static_cast<Logger*>(c);
      ++self->runs;
      self->log->emplace_back(self->tag, self->eng->current_home(),
                              self->eng->now());
    };
  }
};

TEST(Engine, ResumeEventsAndClosuresShareOneLabelOrder) {
  // Lane 0 schedules closures and both kinds of resume event at one cycle,
  // in turn; they run in scheduling order, each homed where it was
  // scheduled.
  Engine eng;
  Log log;
  auto closure = [&](char tag, ProcId home) {
    eng.at_on(home, 50, [&eng, &log, tag] {
      log.emplace_back(tag, eng.current_home(), eng.now());
    });
  };
  Logger e(&eng, &log, 'e');
  Logger f(&eng, &log, 'f');
  closure('a', 2);
  Task<> b = resume_at(&eng, &log, 'b', 4, 50);
  b.start();
  eng.resume_at_on(3, 50, &e);
  closure('c', 1);
  Task<> d = resume_at(&eng, &log, 'd', kNoProc, 50);
  d.start();
  eng.resume_at_on(kNoProc, 50, &f);
  eng.run();
  std::string tags;
  std::vector<ProcId> homes;
  for (const auto& [tag, home, t] : log) {
    tags += tag;
    homes.push_back(home);
    EXPECT_EQ(t, 50u);
  }
  EXPECT_EQ(tags, "abecdf");
  EXPECT_EQ(homes, (std::vector<ProcId>{2, 4, 3, 1, kNoProc, kNoProc}));
  EXPECT_TRUE(b.done());
  EXPECT_TRUE(d.done());
  EXPECT_EQ(e.runs, 1);
  EXPECT_EQ(f.runs, 1);
  EXPECT_EQ(eng.events_executed(), 6u);
}

TEST(Engine, ResumeEventsClampLikeClosures) {
  // A resume event in the past, of either kind, is the same causality bug
  // as a closure in the past: clamped to now() and counted (Release),
  // asserted (Debug).
  Engine eng;
  Log log;
  Task<> late = resume_at(&eng, &log, 'r', 0, 10);
  Logger c(&eng, &log, 'c');
  eng.at(100, [&late] { late.start(); });
  eng.at_on(2, 100, [&eng, &c] { eng.resume_at_on(1, 20, &c); });
#ifdef NDEBUG
  eng.run();
  EXPECT_EQ(log, (Log{{'r', 0, 100}, {'c', 1, 100}}));
  EXPECT_EQ(eng.clamped_events(), 2u);
#else
  EXPECT_DEATH(eng.run(), "scheduled in the past");
#endif
}

Task<> flag_on_resume(Engine* eng, Cycles t, bool* resumed) {
  co_await suspend_to([eng, t](std::coroutine_handle<> h) {
    eng->resume_at_on(0, t, h);
  });
  *resumed = true;
}

TEST(Engine, DestroyedEngineNeverResumesPendingCoroutines) {
  // A closure and four resume events are pending. Two are coroutines: one
  // in the overflow heap, whose frame outlives the engine, and one in the
  // wheel, whose frame is freed first, so the engine holds a dangling
  // handle when it is destroyed (AddressSanitizer reports any touch of
  // it). Two are Continuations, one in each structure, the wheel's freed
  // first in the same way.
  bool kept_resumed = false;
  bool freed_resumed = false;
  Task<> kept;
  Log log;
  Logger kept_cont(nullptr, &log, 'k');
  {
    Engine eng;
    kept_cont.eng = &eng;
    kept = flag_on_resume(&eng, 5'000, &kept_resumed);
    kept.start();
    {
      Task<> t = flag_on_resume(&eng, 20, &freed_resumed);
      t.start();
    }
    eng.resume_at_on(0, 6'000, &kept_cont);
    {
      auto freed = std::make_unique<Logger>(&eng, &log, 'f');
      eng.resume_at_on(0, 30, freed.get());
    }
    eng.at(10, [] {});
    EXPECT_EQ(eng.pending(), 5u);
  }
  EXPECT_FALSE(kept_resumed);
  EXPECT_FALSE(freed_resumed);
  EXPECT_FALSE(kept.done());
  EXPECT_EQ(kept_cont.runs, 0);
  EXPECT_TRUE(log.empty());
}

TEST(Engine, RunUntilStopsShortOfAnEventInTheOverflow) {
  // 9,000 cycles ahead is past the wheel: the next event sits in the
  // overflow heap, and run_until must neither run it early nor move the
  // clock past the last executed event.
  Engine eng;
  std::vector<Cycles> fired;
  eng.at(10, [&] { fired.push_back(eng.now()); });
  eng.at(9'000, [&] { fired.push_back(eng.now()); });
  eng.run_until(8'999);
  EXPECT_EQ(fired, (std::vector<Cycles>{10}));
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.pending(), 1u);
  eng.run_until(9'000);
  EXPECT_EQ(fired, (std::vector<Cycles>{10, 9'000}));
  EXPECT_EQ(eng.now(), 9'000u);
  EXPECT_TRUE(eng.idle());
}

}  // namespace
}  // namespace cm::sim
