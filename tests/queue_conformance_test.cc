// Conformance suite for the engine's event queue.
//
// The engine runs on a timing-wheel calendar queue with a heap overflow
// (event_queue.h). Its contract: events fire in (time, label) order, equal
// timestamps FIFO within a lane, and run()/run_until()/run_bounded()/
// idle()/pending() observe the states a plain priority queue would. These
// tests check the contract on hand-built schedules, and pit the engine
// against a small reference loop over HeapEventQueue on randomized
// schedules (including events scheduled from inside handlers, and delays
// that straddle the wheel's edge). Every engine-vs-reference schedule runs
// on label lane 0, whose labels follow insertion order, so the reference
// loop needs only one insertion counter. The `CalendarWheel` cases drive
// the bare queue with hand-picked labels. The bench goldens pin the engine
// on the full workloads.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
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

/// Delays a short way ahead: every event lands in the wheel.
Cycles near_delay(Rand& rng) { return rng.next() % 400; }

/// Delays spanning three wheel turns, a quarter of them clustered on the
/// wheel's edge: 4,095 cycles past the last pop is the wheel's last slot,
/// 4,096 and 4,097 go to the overflow heap.
Cycles wide_delay(Rand& rng) {
  constexpr Cycles kSlots = CalendarQueue::kSlots;
  const std::uint64_t r = rng.next();
  if (r % 4 == 0) return kSlots - 1 + (r >> 2) % 3;
  return (r >> 2) % (3 * kSlots);
}

template <class Loop>
Observed drive(std::uint64_t seed, Cycles (*delay)(Rand&)) {
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
    Cycles (*delay)(Rand&);
    void spawn(int budget) const {
      const int id = (*next_id)++;
      const Cycles t = eng->now() + delay(*rng);
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
  Spawner sp{&eng, &obs, &rng, &next_id, delay};
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
    const Observed cal = drive<Engine>(seed, near_delay);
    const Observed heap = drive<HeapLoop>(seed, near_delay);
    ASSERT_EQ(cal.fired.size(), heap.fired.size()) << "seed " << seed;
    EXPECT_EQ(cal.fired, heap.fired) << "seed " << seed;
    EXPECT_EQ(cal.checkpoints, heap.checkpoints) << "seed " << seed;
  }
}

TEST(QueueAgreement, SchedulesAcrossTheWheelEdgeAgree) {
  // Delays from 0 to three wheel turns, clustered at 4,095 / 4,096 / 4,097
  // past the last pop, many of them scheduled from handlers: the wheel's
  // window slides past events waiting in the overflow heap, and wheel and
  // overflow events meet at one timestamp.
  for (std::uint64_t seed : {3ull, 11ull, 4096ull, 31337ull}) {
    const Observed cal = drive<Engine>(seed, wide_delay);
    const Observed heap = drive<HeapLoop>(seed, wide_delay);
    ASSERT_EQ(cal.fired.size(), heap.fired.size()) << "seed " << seed;
    EXPECT_EQ(cal.fired, heap.fired) << "seed " << seed;
    EXPECT_EQ(cal.checkpoints, heap.checkpoints) << "seed " << seed;
  }
}

TEST(QueueAgreement, LargeMonotoneBurstsAgree) {
  // Stress the overflow heap: bursts reaching far past the wheel followed
  // by full drains, repeated so the wheel's window slides many times over
  // events that wait in the overflow. The schedule (deltas from now) is
  // generated once and replayed into both loops.
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

// --- The bare wheel, with hand-picked labels -------------------------------

/// Pop everything; return the (t, seq) order.
std::vector<std::pair<Cycles, std::uint64_t>> drain(CalendarQueue& q) {
  std::vector<std::pair<Cycles, std::uint64_t>> out;
  while (!q.empty()) {
    const EventKey k = q.pop_move();
    out.emplace_back(k.t, k.seq);
  }
  return out;
}

TEST(CalendarWheel, OneTimestampInWheelAndOverflowPopsInLabelOrder) {
  // t = 5,000 is past the wheel while the last pop is 0, so label 10 goes
  // to the overflow. After a pop at 1,000 the same time is in range, and
  // labels 5 and 20 go to the wheel. The three must pop 5, 10, 20.
  CalendarQueue q;
  q.push(5'000, 10, 0, 0);
  q.push(1'000, 1, 0, 0);
  EXPECT_EQ(q.pop_move().t, 1'000u);
  q.push(5'000, 20, 0, 0);
  q.push(5'000, 5, 0, 0);
  EXPECT_EQ(q.min_time(), 5'000u);
  using P = std::pair<Cycles, std::uint64_t>;
  EXPECT_EQ(drain(q), (std::vector<P>{{5'000, 5}, {5'000, 10}, {5'000, 20}}));
}

TEST(CalendarWheel, FallingLabelsWithinASlotWalkIntoPlace) {
  // Labels that arrive in falling or mixed order take the walk from the
  // slot's head rather than the tail append.
  CalendarQueue q;
  const std::vector<std::uint64_t> labels = {9, 8, 7, 3, 5, 1, 6, 2, 0, 4};
  for (const std::uint64_t l : labels) q.push(42, l, l, 0);
  std::vector<std::uint64_t> seqs;
  for (const auto& [t, seq] : drain(q)) {
    EXPECT_EQ(t, 42u);
    seqs.push_back(seq);
  }
  std::vector<std::uint64_t> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(seqs, sorted);
}

TEST(CalendarWheel, EdgeSlotsMapToExactTimes) {
  // 4,095 cycles past the last pop is the wheel's last slot, which shares
  // its index with the slot just behind the last pop; 4,096 and 4,097 go
  // to the overflow and come back in order after it.
  CalendarQueue q;
  q.push(100, 0, 0, 0);
  EXPECT_EQ(q.pop_move().t, 100u);
  const Cycles last = 100;
  for (const Cycles d : {4'097u, 4'095u, 4'096u, 0u, 1u}) {
    q.push(last + d, d + 1, 0, 0);
  }
  for (const Cycles d : {0u, 1u, 4'095u, 4'096u, 4'097u}) {
    const EventKey k = q.pop_move();
    EXPECT_EQ(k.t, last + d);
    EXPECT_EQ(k.seq, d + 1);
  }
  EXPECT_TRUE(q.empty());
}

/// The bare queue against an ordered reference of whole records: every pop
/// must hand back the reference's first record, payload and home included,
/// and `min_time()` and `size()` must agree before and after it. Each record
/// gets a distinct payload and home, so a record that leaves either behind
/// when it moves between a slot and its chain shows up.
class WheelCheck {
 public:
  explicit WheelCheck(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] Cycles last() const { return last_; }
  [[nodiscard]] bool empty() const { return ref_.empty(); }
  Rand& rng() { return rng_; }

  /// Push a fresh record at `t` with a label in lane `lane`: labels of one
  /// lane rise, and a lower lane's label is smaller than a higher lane's.
  void push(Cycles t, std::uint64_t lane) {
    const std::uint64_t seq = (lane << 40) | count_;
    const std::uint64_t payload = ~count_ * 0x9E3779B97F4A7C15ull;
    const auto home = static_cast<std::uint32_t>(count_ ^ 0xA5A5u);
    ++count_;
    q_.push(t, seq, payload, home);
    ref_.emplace(std::pair{t, seq}, Rec{payload, home});
    ASSERT_EQ(q_.size(), ref_.size());
    ASSERT_EQ(q_.min_time(), ref_.begin()->first.first);
  }

  void pop() {
    ASSERT_FALSE(ref_.empty());
    // Taken out first, so that a failing check cannot stall a drain loop.
    const auto [key, rec] = *ref_.begin();
    ref_.erase(ref_.begin());
    ++pops_;
    ASSERT_EQ(q_.min_time(), key.first);
    const EventKey k = q_.pop_move();
    last_ = k.t;
    ASSERT_EQ(std::tuple(k.t, k.seq, k.payload, k.home),
              std::tuple(key.first, key.second, rec.payload, rec.home))
        << "pop " << pops_;
    ASSERT_EQ(q_.size(), ref_.size());
    if (!ref_.empty()) {
      ASSERT_EQ(q_.min_time(), ref_.begin()->first.first);
    }
  }

  /// Pop every record at or before `t`.
  void pop_through(Cycles t) {
    while (!ref_.empty() && ref_.begin()->first.first <= t) pop();
  }

 private:
  struct Rec {
    std::uint64_t payload;
    std::uint32_t home;
  };

  CalendarQueue q_;
  std::map<std::pair<Cycles, std::uint64_t>, Rec> ref_;  // by (t, label)
  Rand rng_;
  std::uint64_t count_ = 0;
  std::uint64_t pops_ = 0;
  Cycles last_ = 0;
};

TEST(CalendarWheel, PoppedRecordsKeepTheirPayloadAndHome) {
  constexpr Cycles kSlots = CalendarQueue::kSlots;
  for (const std::uint64_t seed : {1ull, 77ull, 4097ull}) {
    SCOPED_TRACE(seed);
    WheelCheck w(seed);
    Rand& rng = w.rng();
    for (int step = 0; step < 3'000; ++step) {
      const Cycles last = w.last();
      const Cycles t = last + rng.next() % 64;
      switch (rng.next() % 7) {
        case 0:  // most pushes land in an empty slot
          w.push(last + rng.next() % (kSlots - 1), rng.next() % 8);
          break;
        case 1:  // one lane's burst: appends at the chain's tail
          for (std::uint64_t n = 2 + rng.next() % 5; n > 0; --n) w.push(t, 3);
          break;
        case 2:  // falling labels: each displaces the slot's first record
          for (std::uint64_t lane = 8; lane-- > 0;) w.push(t, lane);
          break;
        case 3:  // inserts into the middle of a chain
          for (const std::uint64_t lane : {0u, 7u, 4u, 2u, 6u, 5u}) {
            w.push(t, lane);
          }
          break;
        case 4:  // the wheel's last slot, and the first two past it
          for (const Cycles d : {kSlots - 1, kSlots, kSlots + 1}) {
            w.push(last + d, rng.next() % 8);
          }
          break;
        case 5: {
          // An overflow record that wheel records later tie on both sides
          // of its label: reach within the wheel of its time, then file
          // smaller and larger labels at the same time.
          const Cycles far = last + kSlots + rng.next() % 8;
          w.push(far, 4);
          w.push(far - 16, rng.next() % 8);
          w.pop_through(far - 16);
          for (const std::uint64_t lane : {6u, 2u, 7u, 0u}) w.push(far, lane);
          break;
        }
        default:  // up to three wheel turns ahead
          w.push(last + rng.next() % (3 * kSlots), rng.next() % 8);
          break;
      }
      if (::testing::Test::HasFatalFailure()) return;
      for (std::uint64_t n = rng.next() % 12; n > 0 && !w.empty(); --n) {
        w.pop();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!w.empty()) w.pop();
    EXPECT_GT(w.last(), 10 * kSlots) << "the wheel turned fewer than 10 times";
  }
}

TEST(CalendarWheel, PushBeforeTheLastPopThrows) {
  // The wheel would file an earlier time under a later slot and pop it out
  // of order, so the queue refuses it in every build type. The engine
  // never gets here: it clamps to now() first (Engine tests).
  CalendarQueue q;
  q.push(100, 0, 0, 0);
  EXPECT_EQ(q.pop_move().t, 100u);
  EXPECT_THROW(q.push(99, 1, 0, 0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  q.push(100, 2, 0, 0);  // the last popped time itself is fine
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_move().seq, 2u);
}

}  // namespace
}  // namespace cm::sim
