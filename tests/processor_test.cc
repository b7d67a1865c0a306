#include "sim/processor.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::sim {
namespace {

TEST(Processor, AcquireWhenIdleStartsImmediately) {
  ProcessorFile f(1);
  EXPECT_EQ(f.acquire(0, 100, 50), 150u);
  EXPECT_EQ(f.free_at(0), 150u);
  EXPECT_EQ(f.busy_cycles(0), 50u);
  EXPECT_EQ(f.queue_delay_cycles(0), 0u);
}

TEST(Processor, BackToBackRequestsQueueFcfs) {
  ProcessorFile f(1);
  EXPECT_EQ(f.acquire(0, 0, 100), 100u);
  EXPECT_EQ(f.acquire(0, 0, 100), 200u);   // waits behind the first
  EXPECT_EQ(f.acquire(0, 50, 100), 300u);  // still queued
  EXPECT_EQ(f.busy_cycles(0), 300u);
  EXPECT_EQ(f.queue_delay_cycles(0), 100u + 150u);
  EXPECT_EQ(f.requests(0), 3u);
}

TEST(Processor, GapLeavesCpuIdle) {
  ProcessorFile f(1);
  EXPECT_EQ(f.acquire(0, 0, 10), 10u);
  EXPECT_EQ(f.acquire(0, 100, 10), 110u);  // idle 10..100
  EXPECT_EQ(f.busy_cycles(0), 20u);
}

TEST(Processor, ZeroCostAcquire) {
  ProcessorFile f(1);
  EXPECT_EQ(f.acquire(0, 5, 0), 5u);
  EXPECT_EQ(f.busy_cycles(0), 0u);
}

TEST(Processor, AccountsAreIndependent) {
  ProcessorFile f(3);
  EXPECT_EQ(f.acquire(0, 0, 10), 10u);
  EXPECT_EQ(f.acquire(2, 0, 30), 30u);
  EXPECT_EQ(f.acquire(1, 0, 20), 20u);  // no cross-account queueing
  EXPECT_EQ(f.total_busy(), 60u);
  EXPECT_EQ(f.free_at(1), 20u);
  // The view handle reads the same account.
  const ProcessorView v(f, 2);
  EXPECT_EQ(v.id(), 2u);
  EXPECT_EQ(v.busy_cycles(), 30u);
  EXPECT_EQ(v.requests(), 1u);
}

/// A Continuation that logs its processor and the cycle it wakes at.
struct Logged : Continuation {
  ProcId p;
  Engine* eng;
  std::vector<std::pair<ProcId, Cycles>>* log;

  Logged(ProcId at, Engine& e, std::vector<std::pair<ProcId, Cycles>>& l)
      : p(at), eng(&e), log(&l) {
    run = [](Continuation* c) {
      const auto* self = static_cast<Logged*>(c);
      self->log->emplace_back(self->p, self->eng->now());
    };
  }
};

TEST(Machine, ExecChargesCpuBeforeRunning) {
  // `resume_on` occupies the processor first, then wakes the work.
  Engine eng;
  Machine m(eng, 2);
  std::vector<std::pair<ProcId, Cycles>> log;
  Logged first(0, eng, log), second(0, eng, log), other(1, eng, log);
  m.resume_on(0, 100, &first);
  m.resume_on(0, 50, &second);  // queues
  m.resume_on(1, 30, &other);   // parallel
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<ProcId, Cycles>{1, 30}));
  EXPECT_EQ(log[1], (std::pair<ProcId, Cycles>{0, 100}));
  EXPECT_EQ(log[2], (std::pair<ProcId, Cycles>{0, 150}));
  EXPECT_EQ(m.total_busy(), 180u);
}

Task<> worker(Machine* m, ProcId p, std::vector<Cycles>* marks) {
  co_await m->compute(p, 10);
  marks->push_back(m->engine().now());
  co_await m->compute(p, 20);
  marks->push_back(m->engine().now());
}

TEST(Machine, ComputeAwaitableAdvancesTime) {
  Engine eng;
  Machine m(eng, 1);
  std::vector<Cycles> marks;
  detach(worker(&m, 0, &marks));
  eng.run();
  EXPECT_EQ(marks, (std::vector<Cycles>{10, 30}));
}

TEST(Machine, TwoThreadsShareOneCpuFcfs) {
  Engine eng;
  Machine m(eng, 1);
  std::vector<Cycles> a, b;
  detach(worker(&m, 0, &a));
  detach(worker(&m, 0, &b));
  eng.run();
  // a runs 0-10, b queues 10-20, a 20-40, b 40-60.
  EXPECT_EQ(a, (std::vector<Cycles>{10, 40}));
  EXPECT_EQ(b, (std::vector<Cycles>{20, 60}));
  EXPECT_EQ(m.proc(0).busy_cycles(), 60u);
}

Task<> napper(Machine* m, Cycles d, Cycles* woke) {
  co_await m->sleep(d);
  *woke = m->engine().now();
}

TEST(Machine, SleepDoesNotOccupyCpu) {
  Engine eng;
  Machine m(eng, 1);
  Cycles woke = 0;
  detach(napper(&m, 500, &woke));
  eng.run();
  EXPECT_EQ(woke, 500u);
  EXPECT_EQ(m.proc(0).busy_cycles(), 0u);
}

// Property: with N equal-cost requests arriving together, completion times
// are exactly cost, 2*cost, ..., N*cost (perfect FCFS serialisation).
class FcfsProperty : public ::testing::TestWithParam<int> {};

TEST_P(FcfsProperty, SerialisesEqualWork) {
  const int n = GetParam();
  ProcessorFile f(1);
  for (int i = 1; i <= n; ++i) {
    EXPECT_EQ(f.acquire(0, 0, 7), static_cast<Cycles>(7 * i));
  }
  EXPECT_EQ(f.busy_cycles(0), static_cast<Cycles>(7 * n));
}

INSTANTIATE_TEST_SUITE_P(Counts, FcfsProperty,
                         ::testing::Values(1, 2, 8, 64, 1000));

}  // namespace
}  // namespace cm::sim
