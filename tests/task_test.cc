#include "sim/task.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.h"

namespace cm::sim {
namespace {

Task<int> forty_two() { co_return 42; }

Task<int> add(int a, int b) {
  const int x = co_await forty_two();
  co_return a + b + x - 42;
}

Task<> record(std::vector<int>* out, int v) {
  out->push_back(v);
  co_return;
}

TEST(Task, ReturnsValueThroughAwait) {
  bool done = false;
  int result = 0;
  auto runner = [](bool* d, int* r) -> Task<> {
    *r = co_await add(1, 2);
    *d = true;
  };
  Task<> t = runner(&done, &result);
  t.start();
  EXPECT_TRUE(done);
  EXPECT_EQ(result, 3);
  EXPECT_TRUE(t.done());
}

TEST(Task, LazyUntilStartedOrAwaited) {
  std::vector<int> out;
  Task<> t = record(&out, 7);
  EXPECT_TRUE(out.empty());  // not started yet
  t.start();
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(Task, DetachRunsToCompletion) {
  std::vector<int> out;
  detach(record(&out, 1));
  detach(record(&out, 2));
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

Task<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable; makes this a coroutine
}

Task<> catcher(bool* caught) {
  try {
    (void)co_await thrower();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  bool caught = false;
  Task<> t = catcher(&caught);
  t.start();
  EXPECT_TRUE(caught);
}

Task<> sleeper(Engine* eng, Cycles d, Cycles* woke_at) {
  co_await suspend_to([eng, d](std::coroutine_handle<> h) {
    eng->after(d, [h] { h.resume(); });
  });
  *woke_at = eng->now();
}

TEST(Task, SuspendToResumesViaEngine) {
  Engine eng;
  Cycles woke = 0;
  Task<> t = sleeper(&eng, 25, &woke);
  t.start();
  EXPECT_FALSE(t.done());
  eng.run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(woke, 25u);
}

Task<> nested_sleeps(Engine* eng, std::vector<Cycles>* log) {
  for (int i = 0; i < 3; ++i) {
    co_await suspend_to([eng](std::coroutine_handle<> h) {
      eng->after(10, [h] { h.resume(); });
    });
    log->push_back(eng->now());
  }
}

TEST(Task, RepeatedSuspension) {
  Engine eng;
  std::vector<Cycles> log;
  Task<> t = nested_sleeps(&eng, &log);
  t.start();
  eng.run();
  EXPECT_EQ(log, (std::vector<Cycles>{10, 20, 30}));
}

TEST(Task, MoveTransfersOwnership) {
  std::vector<int> out;
  Task<> a = record(&out, 3);
  Task<> b = std::move(a);
  // NOLINTNEXTLINE(bugprone-use-after-move): testing move semantics
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.start();
  EXPECT_EQ(out, (std::vector<int>{3}));
}

/// A Continuation that counts its runs and, if told to, takes the task it
/// is the continuation of, freeing that task's frame from inside its final
/// suspension, as the runtime's remote call does when its body throws.
struct Counted : Continuation {
  int runs = 0;
  Started<int>* take_from = nullptr;
  int taken = 0;

  Counted() : Continuation{&Counted::step} {}
  static void step(Continuation* c) {
    auto* const k = static_cast<Counted*>(c);
    ++k->runs;
    if (k->take_from != nullptr) k->taken = k->take_from->take();
  }
};

Task<int> answer_after(Engine* eng, Cycles d) {
  co_await suspend_to([eng, d](std::coroutine_handle<> h) {
    eng->after(d, [h] { h.resume(); });
  });
  co_return 42;
}

TEST(Task, ContinuationRunsOnceAtCompletionAndLeavesTheResultToTake) {
  Engine eng;
  Counted k;
  Started<int> value;
  value.start(answer_after(&eng, 5), &k).resume();
  EXPECT_EQ(k.runs, 0);  // suspended until its event
  eng.run();
  EXPECT_EQ(k.runs, 1);
  EXPECT_FALSE(value.failed());
  EXPECT_EQ(value.take(), 42);
  EXPECT_FALSE(value.started());

  Started<int> error;
  error.start(thrower(), &k).resume();  // completes without suspending
  EXPECT_EQ(k.runs, 2);
  EXPECT_TRUE(error.failed());
  EXPECT_THROW((void)error.take(), std::runtime_error);
  EXPECT_EQ(k.runs, 2);
}

TEST(Task, ContinuationMayFreeTheFrameItCompletesFrom) {
  // Under AddressSanitizer, a use of the freed frame after the step would
  // be reported.
  Engine eng;
  Counted k;
  Started<int> value;
  k.take_from = &value;
  value.start(answer_after(&eng, 5), &k).resume();
  eng.run();
  EXPECT_EQ(k.runs, 1);
  EXPECT_EQ(k.taken, 42);
  EXPECT_FALSE(value.started());
}

TEST(Task, DroppingUnstartedTaskIsSafe) {
  std::vector<int> out;
  { Task<> t = record(&out, 9); }  // destroyed without running
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace cm::sim
