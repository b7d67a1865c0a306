// Seeded-bug fixtures: each test plants one protocol bug the benches could
// never see (end states stay correct) and asserts the checker catches it
// with the exact violation kind. In Debug builds the same bugs abort the
// process (death tests); with abort_on_violation off they surface in the
// structured report, which is what Release builds assert.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/workload.h"
#include "check/checker.h"
#include "core/location.h"
#include "core/runtime.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace cm::check {
namespace {

using core::CallOpts;
using core::Ctx;
using core::ObjectId;
using sim::ProcId;
using sim::Task;

CheckConfig cfg_with(bool abort_on) {
  CheckConfig cfg;
  cfg.abort_on_violation = abort_on;
  return cfg;
}

/// A bare machine with a checker.
struct World : apps::Stack {
  World(ProcId nprocs, bool abort_on) : Stack(nprocs, checked(abort_on)) {}

  static apps::StackConfig checked(bool abort_on) {
    apps::StackConfig cfg = apps::bare_config();
    cfg.check = true;
    cfg.check_cfg = cfg_with(abort_on);
    return cfg;
  }
};

// ---------------------------------------------------------------------------
// Seeded bug 1: stale-host write. A broken location service claims every
// object is local to whoever asks, so the dispatcher runs method bodies
// against state that lives on another processor — the exact bug class the
// omniscient oracle hides and the phantom check exists for.
// ---------------------------------------------------------------------------

class LyingLocalService : public core::LocationService {
 public:
  Task<ProcId> resolve(Ctx& ctx, ObjectId) override { co_return ctx.proc; }
  Task<ProcId> forward(ObjectId, ProcId at, unsigned, ProcId) override {
    co_return at;
  }
  Task<bool> move_object(Ctx&, ObjectId, unsigned) override {
    co_return false;
  }
};

std::uint64_t run_stale_host_write(bool abort_on) {
  World w(4, abort_on);
  LyingLocalService svc;
  w.rt.set_locator(&svc);
  const ObjectId id = w.objects.create(2);  // truth: the object lives on 2
  sim::detach([](World* w, ObjectId id) -> Task<> {
    Ctx ctx{&w->rt, 0};
    (void)co_await w->rt.call(ctx, id, CallOpts{2, 2, true},
                              [w](Ctx& c) -> Task<int> {
                                co_await w->rt.compute(c, 5);
                                co_return 0;
                              });
  }(&w, id));
  w.eng.run();
  w.checker->finalize();
  return w.checker->count(Violation::kPhantomWrite);
}

TEST(CheckFixture, StaleHostWriteIsReported) {
  World w(4, /*abort_on=*/false);
  LyingLocalService svc;
  w.rt.set_locator(&svc);
  const ObjectId id = w.objects.create(2);
  sim::detach([](World* w, ObjectId id) -> Task<> {
    Ctx ctx{&w->rt, 0};
    (void)co_await w->rt.call(ctx, id, CallOpts{2, 2, true},
                              [w](Ctx& c) -> Task<int> {
                                co_await w->rt.compute(c, 5);
                                co_return 0;
                              });
  }(&w, id));
  w.eng.run();
  w.checker->finalize();
  ASSERT_GE(w.checker->count(Violation::kPhantomWrite), 1u);
  const ViolationRecord& r = w.checker->records()[0];
  EXPECT_EQ(r.kind, Violation::kPhantomWrite);
  EXPECT_EQ(r.proc, 0u);  // the caller ran the body at home=0...
  EXPECT_NE(r.detail.find("hosted on 2"), std::string::npos);  // ...truth: 2
}

// A subtler variant: resolution is honestly remote but the forward step
// never chases the chain, so the request "arrives" at a stale processor.
class LazyForwardService : public core::LocationService {
 public:
  Task<ProcId> resolve(Ctx&, ObjectId) override {
    co_return 1;  // stale hint: the object long since left proc 1
  }
  Task<ProcId> forward(ObjectId, ProcId at, unsigned, ProcId) override {
    co_return at;  // bug: no chase, no compression
  }
  Task<bool> move_object(Ctx&, ObjectId, unsigned) override {
    co_return false;
  }
};

TEST(CheckFixture, ForwardingToAStaleHostIsReported) {
  World w(4, /*abort_on=*/false);
  LazyForwardService svc;
  w.rt.set_locator(&svc);
  const ObjectId id = w.objects.create(2);
  sim::detach([](World* w, ObjectId id) -> Task<> {
    Ctx ctx{&w->rt, 0};
    (void)co_await w->rt.call(ctx, id, CallOpts{2, 2, true},
                              [w](Ctx& c) -> Task<int> {
                                co_await w->rt.compute(c, 5);
                                co_return 0;
                              });
  }(&w, id));
  w.eng.run();
  w.checker->finalize();
  ASSERT_GE(w.checker->count(Violation::kPhantomWrite), 1u);
  EXPECT_EQ(w.checker->records()[0].proc, 1u);  // where the call landed
  // The call itself still completed and replied exactly once: without the
  // checker this run is indistinguishable from a healthy one.
  EXPECT_EQ(w.checker->count(Violation::kDuplicateReply), 0u);
  EXPECT_EQ(w.checker->count(Violation::kLostReply), 0u);
}

// ---------------------------------------------------------------------------
// Seeded bug 2: inverted lock order. Two agents take the same two locks in
// opposite orders — the schedule that happens to run deadlocks only under
// the right interleaving, which is why the order graph flags it always.
// ---------------------------------------------------------------------------

std::uint64_t run_inverted_lock_order(bool abort_on) {
  sim::Engine eng;
  Checker ck(eng, 4, cfg_with(abort_on));
  int a1 = 0, a2 = 0, dir_lock = 0, transfer_lock = 0;
  ck.on_lock_attempt(&a1, &dir_lock, "loc.dir_movers");
  ck.on_lock_acquired(&a1, &dir_lock, "loc.dir_movers");
  ck.on_lock_attempt(&a1, &transfer_lock, "MobileObject.transfer_lock");
  ck.on_lock_acquired(&a1, &transfer_lock, "MobileObject.transfer_lock");
  ck.on_lock_released(&a1, &transfer_lock);
  ck.on_lock_released(&a1, &dir_lock);
  ck.on_lock_attempt(&a2, &transfer_lock, "MobileObject.transfer_lock");
  ck.on_lock_acquired(&a2, &transfer_lock, "MobileObject.transfer_lock");
  ck.on_lock_attempt(&a2, &dir_lock, "loc.dir_movers");  // inversion
  return ck.count(Violation::kLockOrderInversion);
}

TEST(CheckFixture, InvertedLockOrderIsReported) {
  EXPECT_EQ(run_inverted_lock_order(/*abort_on=*/false), 1u);
}

// ---------------------------------------------------------------------------
// Seeded bug 3: duplicated reply. A retransmitted reply that slips past
// dedup wakes the blocked caller twice — end state often survives, the
// exactly-once window does not.
// ---------------------------------------------------------------------------

std::uint64_t run_duplicated_reply(bool abort_on) {
  sim::Engine eng;
  Checker ck(eng, 4, cfg_with(abort_on));
  const std::uint64_t call = ck.on_call_begin(0, 42);
  ck.on_reply(call, 0);
  ck.on_reply(call, 0);
  return ck.count(Violation::kDuplicateReply);
}

TEST(CheckFixture, DuplicatedReplyIsReported) {
  EXPECT_EQ(run_duplicated_reply(/*abort_on=*/false), 1u);
}

// The transport-level cousin: a replayed sequence number the dedup filter
// wrongly surfaces as fresh.
std::uint64_t run_replayed_seq(bool abort_on) {
  sim::Engine eng;
  Checker ck(eng, 4, cfg_with(abort_on));
  ck.on_seq_sent(0, 1, 3);
  ck.on_seq_delivered(0, 1, 3, /*fresh=*/true);
  ck.on_seq_delivered(0, 1, 3, /*fresh=*/true);
  return ck.count(Violation::kSeqDuplicate);
}

TEST(CheckFixture, ReplayedSeqIsReported) {
  EXPECT_EQ(run_replayed_seq(/*abort_on=*/false), 1u);
}

// ---------------------------------------------------------------------------
// Abort path: the same seeded bugs kill the process when abort_on_violation
// is set — the Debug default, so a broken protocol stops a Debug soak cold.
// ---------------------------------------------------------------------------

TEST(CheckFixtureDeath, SeededBugsAbortWhenConfigured) {
  EXPECT_DEATH_IF_SUPPORTED((void)run_stale_host_write(true),
                            "VIOLATION phantom_write");
  EXPECT_DEATH_IF_SUPPORTED((void)run_inverted_lock_order(true),
                            "VIOLATION lock_order");
  EXPECT_DEATH_IF_SUPPORTED((void)run_duplicated_reply(true),
                            "VIOLATION duplicate_reply");
  EXPECT_DEATH_IF_SUPPORTED((void)run_replayed_seq(true),
                            "VIOLATION seq_duplicate");
}

#ifndef NDEBUG
TEST(CheckFixtureDeath, DebugDefaultConfigAborts) {
  // No explicit config: Debug builds abort on the first violation.
  EXPECT_DEATH_IF_SUPPORTED(
      {
        sim::Engine eng;
        Checker ck(eng, 4);
        ck.on_object_access(1, 7, 0, /*write=*/true);
      },
      "VIOLATION phantom_write");
}
#endif

}  // namespace
}  // namespace cm::check
