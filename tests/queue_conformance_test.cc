// Conformance suite for the engine's event queue.
//
// The engine runs on a calendar queue over a slab arena (event_queue.h).
// Its contract: events fire in (time, insertion-sequence) order, equal
// timestamps FIFO, and run()/run_until()/run_bounded()/idle()/pending()
// observe the states a plain priority queue would. These tests check the
// contract on hand-built schedules, and pit the engine against a small
// reference loop over HeapEventQueue on randomized schedules (including
// events scheduled from inside handlers). Every schedule here runs on label
// lane 0, whose labels follow insertion order, so the reference loop needs
// only one insertion counter. The bench goldens pin the engine on the full
// workloads.

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/event_queue.h"

namespace cm::sim {
namespace {

// One instantiation, named so each case keeps its historical test id.
enum class Queue : std::uint8_t { kCalendar };

class QueueConformance : public ::testing::TestWithParam<Queue> {};

INSTANTIATE_TEST_SUITE_P(Backends, QueueConformance,
                         ::testing::Values(Queue::kCalendar),
                         [](const auto&) { return "Calendar"; });

TEST_P(QueueConformance, EqualTimestampsFireInInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    eng.at(100, [&order, i] { order.push_back(i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(QueueConformance, InterleavedTimesStillFifoWithinATime) {
  Engine eng;
  std::vector<std::pair<Cycles, int>> order;
  // Alternate between two timestamps so same-time events are separated by
  // other insertions — FIFO must hold per timestamp, not just globally.
  for (int i = 0; i < 32; ++i) {
    const Cycles t = (i % 2 == 0) ? 10 : 20;
    eng.at(t, [&order, t, i] { order.emplace_back(t, i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 32u);
  int last10 = -1;
  int last20 = -1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k].first == 10) {
      EXPECT_LT(last10, order[k].second);
      last10 = order[k].second;
      EXPECT_LT(k, 16u);  // all t=10 events precede all t=20 events
    } else {
      EXPECT_LT(last20, order[k].second);
      last20 = order[k].second;
    }
  }
}

TEST_P(QueueConformance, EventsScheduledFromHandlersKeepOrdering) {
  Engine eng;
  std::vector<int> order;
  eng.at(10, [&] {
    order.push_back(0);
    eng.at(10, [&] { order.push_back(1); });  // same time, scheduled later
    eng.after(5, [&] { order.push_back(3); });
  });
  eng.at(10, [&] { order.push_back(2); });  // pre-scheduled, earlier seq...
  eng.run();
  // ...but seq 2's handler-scheduled sibling (seq for push 1) is later
  // still, so: 0 (first at 10), 2 (second at 10), 1 (third at 10), 3 (15).
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 3);
}

// A deterministic xorshift so the "random" schedules are identical across
// both loops and across runs.
struct Rand {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct Fired {
  Cycles t;
  int id;
  bool operator==(const Fired&) const = default;
};

/// The reference: the engine's scheduling and run-loop contract over a
/// binary heap, with one insertion counter for labels.
class HeapLoop {
 public:
  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  void at(Cycles t, std::function<void()> fn) {
    heap_.push(t < now_ ? now_ : t, seq_++, std::move(fn));
  }

  void run() {
    while (!heap_.empty()) step();
  }
  void run_until(Cycles t) {
    while (!heap_.empty() && heap_.min_time() <= t) step();
    if (heap_.empty() && now_ < t) now_ = t;
  }
  void run_bounded(std::size_t n) {
    for (std::size_t i = 0; i < n && !heap_.empty(); ++i) step();
  }

 private:
  void step() {
    HeapEvent ev = heap_.pop_move();
    now_ = ev.t;
    ++executed_;
    ev.fn();
  }

  HeapEventQueue heap_;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t executed_ = 0;
};

// Drive one event loop through a randomized schedule: a seed set of events,
// a fraction of which schedule follow-up events (some at the current time,
// some ahead) from inside their handlers. Interleave run_until /
// run_bounded and snapshot (now, pending, idle) at every checkpoint.
struct Observed {
  std::vector<Fired> fired;
  std::vector<std::tuple<Cycles, std::size_t, bool>> checkpoints;
};

template <class Loop>
Observed drive(std::uint64_t seed) {
  Loop eng;
  Observed obs;
  Rand rng{seed};
  int next_id = 0;
  // Self-referential scheduling needs a stable callable; recursion depth is
  // bounded by `budget`.
  struct Spawner {
    Loop* eng;
    Observed* obs;
    Rand* rng;
    int* next_id;
    void spawn(int budget) const {
      const int id = (*next_id)++;
      const Cycles t = eng->now() + (rng->next() % 400);
      eng->at(t, [this, id, budget] {
        obs->fired.push_back({eng->now(), id});
        if (budget > 0 && rng->next() % 4 == 0) spawn(budget - 1);
        if (budget > 0 && rng->next() % 8 == 0) {
          // Same-time follow-up: lands at now() with a later seq.
          const int fid = (*next_id)++;
          eng->at(eng->now(), [this, fid] {
            obs->fired.push_back({eng->now(), fid});
          });
        }
      });
    }
  };
  Spawner sp{&eng, &obs, &rng, &next_id};
  for (int i = 0; i < 200; ++i) sp.spawn(3);
  while (!eng.idle()) {
    if (rng.next() % 2 == 0) {
      eng.run_until(eng.now() + rng.next() % 150);
    } else {
      eng.run_bounded(1 + rng.next() % 16);
    }
    obs.checkpoints.emplace_back(eng.now(), eng.pending(), eng.idle());
  }
  return obs;
}

TEST(QueueAgreement, RandomizedSchedulesAgreeAcrossBackends) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1993ull}) {
    const Observed cal = drive<Engine>(seed);
    const Observed heap = drive<HeapLoop>(seed);
    ASSERT_EQ(cal.fired.size(), heap.fired.size()) << "seed " << seed;
    EXPECT_EQ(cal.fired, heap.fired) << "seed " << seed;
    EXPECT_EQ(cal.checkpoints, heap.checkpoints) << "seed " << seed;
  }
}

TEST(QueueAgreement, LargeMonotoneBurstsAgree) {
  // Stress the calendar's refill path: bursts far beyond the current
  // horizon followed by full drains, repeated so the rung is rebuilt many
  // times with varying widths. The schedule (deltas from now) is generated
  // once and replayed into both loops.
  Engine cal;
  HeapLoop heap;
  std::vector<Fired> a;
  std::vector<Fired> b;
  Rand rng{99};
  int id = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<Cycles> deltas(3'000);
    for (Cycles& d : deltas) d = rng.next() % 100'000;
    for (const Cycles d : deltas) {
      const int eid = id++;
      cal.at(cal.now() + d, [&a, &cal, eid] { a.push_back({cal.now(), eid}); });
      heap.at(heap.now() + d,
              [&b, &heap, eid] { b.push_back({heap.now(), eid}); });
    }
    cal.run();
    heap.run();
    ASSERT_EQ(cal.now(), heap.now()) << "round " << round;
  }
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  EXPECT_EQ(cal.events_executed(), heap.events_executed());
}

}  // namespace
}  // namespace cm::sim
