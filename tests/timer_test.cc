#include "sim/timer.h"

#include <gtest/gtest.h>

#include "sim/engine.h"

namespace cm::sim {
namespace {

TEST(Timer, FiresAtDeadline) {
  Engine eng;
  Timer t(eng);
  Cycles fired_at = 0;
  t.arm(50, [&] { fired_at = eng.now(); });
  EXPECT_TRUE(t.armed());
  eng.run();
  EXPECT_EQ(fired_at, 50u);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelSuppressesPendingFire) {
  Engine eng;
  Timer t(eng);
  bool fired = false;
  t.arm(50, [&] { fired = true; });
  eng.at(10, [&] { t.cancel(); });
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(eng.now(), 50u);  // the defused event still drained
}

TEST(Timer, RearmSupersedesEarlierArm) {
  Engine eng;
  Timer t(eng);
  int which = 0;
  t.arm(50, [&] { which = 1; });
  eng.at(10, [&] { t.arm(100, [&] { which = 2; }); });
  eng.run();
  EXPECT_EQ(which, 2);  // only the newest arming fires
}

TEST(Timer, RearmFromCallbackChains) {
  Engine eng;
  Timer t(eng);
  int fires = 0;
  std::function<void()> tick = [&] {
    if (++fires < 3) t.arm(20, tick);
  };
  t.arm(20, tick);
  eng.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(eng.now(), 60u);
}

TEST(Timer, CancelAfterFireIsANoOp) {
  Engine eng;
  Timer t(eng);
  int fires = 0;
  t.arm(50, [&] { ++fires; });
  eng.run();
  ASSERT_EQ(fires, 1);
  t.cancel();  // nothing pending: must not touch later armings
  EXPECT_FALSE(t.armed());
  t.arm(30, [&] { ++fires; });
  eng.run();
  EXPECT_EQ(fires, 2);  // the stale cancel did not defuse the new arming
}

TEST(Timer, RearmInsideOwnCallbackRestartsCleanly) {
  // A callback re-arming its own timer must not be suppressed by the
  // generation check that just fired it, and cancel from outside must stop
  // the chain exactly where it is.
  Engine eng;
  Timer t(eng);
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    t.arm(10, tick);
    EXPECT_TRUE(t.armed());  // re-armed state visible inside the callback
  };
  t.arm(10, tick);
  eng.at(35, [&] { t.cancel(); });  // between the 3rd (30) and 4th (40) fire
  eng.run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, SameCycleRearmFiresOnlyNewestCallback) {
  // Generation-check race: an event at the same cycle the timer would fire
  // re-arms it first (earlier insertion seq drains first). The superseded
  // fire event must be defused by the generation bump even though it was
  // already queued for this very cycle.
  Engine eng;
  Timer t(eng);
  int old_fires = 0;
  int new_fires = 0;
  eng.at(50, [&] { t.arm(50, [&] { ++new_fires; }); });
  t.arm(50, [&] { ++old_fires; });
  eng.run();
  EXPECT_EQ(old_fires, 0);  // superseded in its own delivery cycle
  EXPECT_EQ(new_fires, 1);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(Timer, SameCycleCancelSuppressesFire) {
  // The cancel lands at the fire's own cycle; insertion order decides the
  // drain order, and the generation bump must win either way.
  Engine eng;
  Timer t(eng);
  bool fired = false;
  eng.at(50, [&] { t.cancel(); });  // queued before the arm's fire event
  t.arm(50, [&] { fired = true; });
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, SafeToDestroyWhileArmed) {
  Engine eng;
  bool fired = false;
  {
    Timer t(eng);
    t.arm(50, [&] { fired = true; });
  }  // Timer gone; the queued event must not crash
  eng.run();
  // The control block survives via shared_ptr, and the destructor defused
  // the pending event.
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace cm::sim
