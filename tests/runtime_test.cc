#include "core/runtime.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "check/checker.h"
#include "core/ft.h"
#include "core/mechanism.h"
#include "core/metrics.h"
#include "core/mobile.h"
#include "core/object.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace cm::core {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

using World = apps::Stack;

TEST(ObjectSpace, AssignsIdsAndHomes) {
  ObjectSpace os;
  const ObjectId a = os.create(3);
  const ObjectId b = os.create(7);
  EXPECT_NE(a, b);
  EXPECT_EQ(os.home_of(a), 3u);
  EXPECT_EQ(os.home_of(b), 7u);
  EXPECT_EQ(os.size(), 2u);
}

TEST(ObjectSpace, HomeOfAnUnknownIdThrowsOutOfRange) {
  ObjectSpace os;
  EXPECT_THROW((void)os.home_of(0), std::out_of_range);
  (void)os.create(0);
  EXPECT_EQ(os.home_of(0), 0u);
  EXPECT_THROW((void)os.home_of(7), std::out_of_range);
}

TEST(ObjectSpace, MoveOfAnUnknownIdThrowsOutOfRange) {
  ObjectSpace os;
  EXPECT_THROW(os.move(0, 1), std::out_of_range);
  const ObjectId a = os.create(2);
  EXPECT_THROW(os.move(a + 1, 1), std::out_of_range);
  EXPECT_EQ(os.home_of(a), 2u);  // the failed move changed nothing
  EXPECT_EQ(os.size(), 1u);
}

Task<> call_once(World* w, ObjectId obj, ProcId from, int* result,
                 Cycles work) {
  Ctx ctx{&w->rt, from};
  *result = co_await w->rt.call(
      ctx, obj, CallOpts{4, 2, false},
      [w, work](Ctx& callee) -> Task<int> {
        co_await w->rt.compute(callee, work);
        co_return static_cast<int>(callee.proc);
      });
}

TEST(Runtime, LocalCallSendsNoMessages) {
  World w(4);
  const ObjectId obj = w.objects.create(2);
  int result = -1;
  sim::detach(call_once(&w, obj, /*from=*/2, &result, 10));
  w.eng.run();
  EXPECT_EQ(result, 2);  // body ran at the object's home
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.rt.stats().local_calls, 1u);
  EXPECT_EQ(w.rt.stats().remote_calls, 0u);
}

TEST(Runtime, RemoteCallIsTwoMessages) {
  World w(4);
  const ObjectId obj = w.objects.create(2);
  int result = -1;
  sim::detach(call_once(&w, obj, /*from=*/0, &result, 10));
  w.eng.run();
  EXPECT_EQ(result, 2);
  EXPECT_EQ(w.net.stats().messages, 2u);  // request + reply
  EXPECT_EQ(w.net.stats().runtime_messages, 2u);
  EXPECT_EQ(w.rt.stats().remote_calls, 1u);
  EXPECT_EQ(w.rt.stats().threads_created, 1u);
}

TEST(Runtime, RemoteWorkRunsOnServerCpu) {
  World w(4);
  const ObjectId obj = w.objects.create(2);
  int result = -1;
  sim::detach(call_once(&w, obj, 0, &result, 500));
  w.eng.run();
  // The 500 cycles of user code were charged to processor 2, not 0.
  EXPECT_GE(w.machine.proc(2).busy_cycles(), 500u);
  EXPECT_LT(w.machine.proc(0).busy_cycles(), 500u);
}

Task<> short_call(World* w, ObjectId obj, ProcId from) {
  Ctx ctx{&w->rt, from};
  (void)co_await w->rt.call(ctx, obj, CallOpts{2, 2, /*short_method=*/true},
                            [w](Ctx& callee) -> Task<int> {
                              co_await w->rt.compute(callee, 5);
                              co_return 0;
                            });
}

TEST(Runtime, ShortMethodSkipsThreadCreation) {
  World w(4);
  const ObjectId obj = w.objects.create(1);
  sim::detach(short_call(&w, obj, 0));
  w.eng.run();
  EXPECT_EQ(w.rt.stats().fast_path_calls, 1u);
  EXPECT_EQ(w.rt.stats().threads_created, 0u);
  EXPECT_EQ(w.rt.stats().breakdown.get(Category::kThreadCreation), 0u);
}

Task<> migrate_once(World* w, ObjectId obj, ProcId from, ProcId* end_proc) {
  Ctx ctx{&w->rt, from};
  co_await w->rt.migrate(ctx, obj, 8);
  *end_proc = ctx.proc;
}

TEST(Runtime, MigrationMovesActivationInOneMessage) {
  World w(4);
  const ObjectId obj = w.objects.create(3);
  ProcId end = 99;
  sim::detach(migrate_once(&w, obj, 0, &end));
  w.eng.run();
  EXPECT_EQ(end, 3u);
  EXPECT_EQ(w.net.stats().messages, 1u);  // one message, no reply
  EXPECT_EQ(w.rt.stats().migrations, 1u);
  EXPECT_EQ(w.rt.stats().migrated_words, 8u);
}

TEST(Runtime, MigrationToLocalObjectIsFree) {
  World w(4);
  const ObjectId obj = w.objects.create(0);
  ProcId end = 99;
  const Cycles before = w.machine.proc(0).busy_cycles();
  sim::detach(migrate_once(&w, obj, 0, &end));
  w.eng.run();
  EXPECT_EQ(end, 0u);
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.rt.stats().migrations, 0u);
  EXPECT_EQ(w.rt.stats().migrations_local, 1u);
  // Only the locality check (paid by every mechanism) was charged.
  EXPECT_LE(w.machine.proc(0).busy_cycles() - before, 5u);
}

// ---------------------------------------------------------------------------
// The paper's §2.5 message-count model (Figure 1): one thread makes n
// consecutive accesses to each of m data items on m distinct processors.
//   RPC:                  2 * n * m messages
//   computation migration: m hops + 1 return
// ---------------------------------------------------------------------------

Task<> sweep_rpc(World* w, std::vector<ObjectId> objs, unsigned n) {
  Ctx ctx{&w->rt, 0};
  for (const ObjectId obj : objs) {
    for (unsigned i = 0; i < n; ++i) {
      (void)co_await w->rt.call(ctx, obj, CallOpts{2, 2, true},
                                [w](Ctx& callee) -> Task<int> {
                                  co_await w->rt.compute(callee, 10);
                                  co_return 0;
                                });
    }
  }
}

Task<> sweep_migrate(World* w, std::vector<ObjectId> objs, unsigned n) {
  Ctx ctx{&w->rt, 0};
  for (const ObjectId obj : objs) {
    co_await w->rt.migrate(ctx, obj, 8);
    for (unsigned i = 0; i < n; ++i) {
      (void)co_await w->rt.call(ctx, obj, CallOpts{2, 2, true},
                                [w](Ctx& callee) -> Task<int> {
                                  co_await w->rt.compute(callee, 10);
                                  co_return 0;
                                });
    }
  }
  co_await w->rt.return_home(ctx, 0, 2);
}

class MessageModel
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(MessageModel, RpcCostsTwoPerAccessMigrationOnePerDatum) {
  const auto [m, n] = GetParam();
  World w1(static_cast<ProcId>(m + 1));
  std::vector<ObjectId> objs1;
  for (unsigned i = 0; i < m; ++i) {
    objs1.push_back(w1.objects.create(static_cast<ProcId>(i + 1)));
  }
  sim::detach(sweep_rpc(&w1, objs1, n));
  w1.eng.run();
  EXPECT_EQ(w1.net.stats().messages, 2ull * n * m);

  World w2(static_cast<ProcId>(m + 1));
  std::vector<ObjectId> objs2;
  for (unsigned i = 0; i < m; ++i) {
    objs2.push_back(w2.objects.create(static_cast<ProcId>(i + 1)));
  }
  sim::detach(sweep_migrate(&w2, objs2, n));
  w2.eng.run();
  EXPECT_EQ(w2.net.stats().messages, static_cast<std::uint64_t>(m) + 1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MessageModel,
                         ::testing::Values(std::pair{1u, 1u}, std::pair{3u, 1u},
                                           std::pair{3u, 4u}, std::pair{8u, 2u},
                                           std::pair{16u, 8u}));

// Reply short-circuiting: a method body that migrates sends its reply from
// its final location, not back through the original callee processor.
Task<> call_with_migrating_body(World* w, ObjectId first, ObjectId second,
                                ProcId* reply_seen_at) {
  Ctx ctx{&w->rt, 0};
  (void)co_await w->rt.call(
      ctx, first, CallOpts{2, 2, false},
      [w, second, reply_seen_at](Ctx& callee) -> Task<int> {
        co_await w->rt.migrate(callee, second, 8);
        *reply_seen_at = callee.proc;
        co_return 1;
      });
}

TEST(Runtime, ReplyShortCircuitsAfterBodyMigration) {
  World w(4);
  const ObjectId first = w.objects.create(1);
  const ObjectId second = w.objects.create(2);
  ProcId final_proc = 99;
  sim::detach(call_with_migrating_body(&w, first, second, &final_proc));
  w.eng.run();
  EXPECT_EQ(final_proc, 2u);
  // request (0->1) + migration (1->2) + reply (2->0): three messages total,
  // not four (no relay through processor 1).
  EXPECT_EQ(w.net.stats().messages, 3u);
}

TEST(Runtime, ReturnHomeIsFreeWhenNeverMigrated) {
  World w(2);
  sim::detach([](World* w) -> Task<> {
    Ctx ctx{&w->rt, 1};
    co_await w->rt.return_home(ctx, 1, 2);
  }(&w));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 0u);
}

// A multi-hop activation pays one message per hop plus ONE short-circuit
// return from its final location — intermediate processors never relay.
Task<> multi_hop_then_home(World* w, ObjectId first, ObjectId second,
                           ProcId* end) {
  Ctx ctx{&w->rt, 0};
  co_await w->rt.migrate(ctx, first, 8);
  co_await w->rt.migrate(ctx, second, 8);
  co_await w->rt.return_home(ctx, 0, 2);
  *end = ctx.proc;
}

TEST(Runtime, ReturnHomeAfterMultiHopIsOneMessage) {
  World w(4);
  const ObjectId first = w.objects.create(1);
  const ObjectId second = w.objects.create(2);
  ProcId end = 99;
  sim::detach(multi_hop_then_home(&w, first, second, &end));
  w.eng.run();
  EXPECT_EQ(end, 0u);  // context re-bound to origin
  // hop 0->1, hop 1->2, return 2->0: three messages, no relay through 1.
  EXPECT_EQ(w.net.stats().messages, 3u);
  EXPECT_EQ(w.rt.stats().migrations, 2u);
  EXPECT_EQ(w.rt.stats().replies, 1u);
}

TEST(Runtime, ReturnHomeIsIdempotentAfterArrival) {
  World w(4);
  const ObjectId obj = w.objects.create(2);
  sim::detach([](World* w, ObjectId obj) -> Task<> {
    Ctx ctx{&w->rt, 0};
    co_await w->rt.migrate(ctx, obj, 8);
    co_await w->rt.return_home(ctx, 0, 2);
    co_await w->rt.return_home(ctx, 0, 2);  // already home: free
  }(&w, obj));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 2u);  // hop + one return only
  EXPECT_EQ(w.rt.stats().replies, 1u);
}

TEST(Runtime, EmptyGroupMigrationIsANoOp) {
  World w(4);
  const ObjectId obj = w.objects.create(3);
  sim::detach([](World* w, ObjectId obj) -> Task<> {
    std::vector<Ctx*> group;
    co_await w->rt.migrate_group(group, obj, 20);
  }(&w, obj));
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.rt.stats().migrations, 0u);
  EXPECT_EQ(w.rt.stats().migrations_local, 0u);
}

TEST(Runtime, GroupMigrationToLocalObjectIsFree) {
  World w(4);
  const ObjectId obj = w.objects.create(0);
  ProcId a_end = 99, b_end = 99;
  sim::detach([](World* w, ObjectId obj, ProcId* a_end,
                 ProcId* b_end) -> Task<> {
    Ctx a{&w->rt, 0};
    Ctx b{&w->rt, 0};
    std::vector<Ctx*> group{&a, &b};
    co_await w->rt.migrate_group(group, obj, 20);
    *a_end = a.proc;
    *b_end = b.proc;
  }(&w, obj, &a_end, &b_end));
  w.eng.run();
  EXPECT_EQ(a_end, 0u);
  EXPECT_EQ(b_end, 0u);
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.rt.stats().migrations_local, 1u);
  EXPECT_EQ(w.rt.stats().migrated_words, 0u);
}

Task<> group_migrate(World* w, ObjectId obj, ProcId* a_end, ProcId* b_end) {
  Ctx a{&w->rt, 0};
  Ctx b{&w->rt, 0};
  std::vector<Ctx*> group{&a, &b};
  co_await w->rt.migrate_group(group, obj, 20);
  *a_end = a.proc;
  *b_end = b.proc;
}

TEST(Runtime, GroupMigrationMovesAllFramesInOneMessage) {
  World w(4);
  const ObjectId obj = w.objects.create(3);
  ProcId a = 99, b = 99;
  sim::detach(group_migrate(&w, obj, &a, &b));
  w.eng.run();
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 3u);
  EXPECT_EQ(w.net.stats().messages, 1u);
  EXPECT_EQ(w.rt.stats().migrated_words, 20u);
}

/// What one migration leaves behind: its traffic, the runtime counters as
/// exported (Table-5 breakdown included), where the activation ended and
/// when the run drained.
struct MigrationOutcome {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::string rt_stats;
  ProcId end = 99;
  Cycles drained_at = 0;
  bool operator==(const MigrationOutcome&) const = default;
};

/// Migrate an activation at processor 0 to an object homed at `home`,
/// through `migrate` or as a `migrate_group` of one.
MigrationOutcome migrate_alone_or_as_group(ProcId home, bool as_group) {
  World w(4);
  const ObjectId obj = w.objects.create(home);
  MigrationOutcome out;
  sim::detach([](World* w, ObjectId obj, bool as_group,
                 ProcId* end) -> Task<> {
    Ctx ctx{&w->rt, 0};
    std::vector<Ctx*> group{&ctx};
    if (as_group) {
      co_await w->rt.migrate_group(group, obj, 8);
    } else {
      co_await w->rt.migrate(ctx, obj, 8);
    }
    *end = ctx.proc;
  }(&w, obj, as_group, &out.end));
  w.eng.run();
  out.messages = w.net.stats().messages;
  out.words = w.net.stats().words;
  Metrics m;
  put_rt_stats(m, w.rt.stats());
  m.append_json_fields(out.rt_stats);
  out.drained_at = w.eng.now();
  return out;
}

TEST(Runtime, MigrateIsAGroupOfOneForALocalObject) {
  const MigrationOutcome alone = migrate_alone_or_as_group(0, false);
  EXPECT_EQ(alone, migrate_alone_or_as_group(0, true));
  EXPECT_EQ(alone.end, 0u);
  EXPECT_EQ(alone.messages, 0u);
}

TEST(Runtime, MigrateIsAGroupOfOneForARemoteObject) {
  const MigrationOutcome alone = migrate_alone_or_as_group(3, false);
  EXPECT_EQ(alone, migrate_alone_or_as_group(3, true));
  EXPECT_EQ(alone.end, 3u);
  EXPECT_EQ(alone.messages, 1u);
}

TEST(Runtime, BreakdownAccumulatesPerCategory) {
  World w(4);
  const ObjectId obj = w.objects.create(3);
  ProcId end = 0;
  sim::detach(migrate_once(&w, obj, 0, &end));
  w.eng.run();
  const Breakdown& bd = w.rt.stats().breakdown;
  const CostModel m = CostModel::software();
  EXPECT_EQ(bd.get(Category::kMarshal), m.marshal(8));
  EXPECT_EQ(bd.get(Category::kCopyPacket), m.copy(8));
  EXPECT_EQ(bd.get(Category::kThreadCreation), m.thread_creation);
  EXPECT_EQ(bd.get(Category::kUnmarshal), m.unmarshal(8));
  EXPECT_EQ(bd.get(Category::kOidTranslation), m.oid());
  EXPECT_EQ(bd.get(Category::kSendLinkage), m.send_linkage);
  EXPECT_GT(bd.get(Category::kNetworkTransit), 0u);
  EXPECT_GT(bd.total(), 0u);
  EXPECT_GT(bd.overhead(), 0u);
}

Task<> throwing_call(World* w, ObjectId obj, bool* caught) {
  Ctx ctx{&w->rt, 0};
  try {
    (void)co_await w->rt.call(ctx, obj, CallOpts{4, 2, false},
                              [](Ctx&) -> Task<int> {
                                throw std::runtime_error("server fault");
                                co_return 0;  // unreachable
                              });
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Runtime, ExceptionsInRemoteBodiesPropagateToCaller) {
  World w(4);
  const ObjectId obj = w.objects.create(2);
  bool caught = false;
  sim::detach(throwing_call(&w, obj, &caught));
  w.eng.run();
  EXPECT_TRUE(caught);
}

Task<> call_throwing_after(World* w, ObjectId obj, Cycles work,
                           std::string* error) {
  Ctx ctx{&w->rt, 0};
  try {
    (void)co_await w->rt.call(ctx, obj, CallOpts{4, 2, false},
                              [w, work](Ctx& callee) -> Task<int> {
                                if (work > 0) {
                                  co_await w->rt.compute(callee, work);
                                }
                                throw std::runtime_error("server fault");
                              });
  } catch (const std::runtime_error& e) {
    *error = e.what();
  }
}

TEST(Runtime, ThrowingRemoteBodyAbandonsItsCheckedCallWindow) {
  // The body throws at once, or after suspending: the error reaches the
  // caller instead of a reply, and the checker excuses the call's window.
  for (const Cycles work : {Cycles{0}, Cycles{50}}) {
    SCOPED_TRACE(work);
    World w(4);
    check::Checker checker(w.eng, 4);
    w.eng.set_checker(&checker);
    const ObjectId obj = w.objects.create(2);
    std::string error;
    sim::detach(call_throwing_after(&w, obj, work, &error));
    EXPECT_NO_THROW(w.eng.run());
    checker.finalize();
    EXPECT_EQ(error, "server fault");
    EXPECT_EQ(checker.stats().calls, 1u);
    EXPECT_EQ(checker.stats().calls_abandoned, 1u);
    EXPECT_EQ(checker.violations(), 0u);
    EXPECT_EQ(w.rt.stats().remote_calls, 1u);
    EXPECT_EQ(w.rt.stats().replies, 0u);
    EXPECT_EQ(w.net.stats().messages, 1u);  // the request alone
  }
}

/// A fault-tolerance service that suspects one processor from a given cycle
/// on and whose recovery barrier fails.
struct FailingRecovery final : FaultTolerance {
  const sim::Engine* eng;
  ProcId dead;
  Cycles from;

  FailingRecovery(const sim::Engine* e, ProcId d, Cycles f)
      : eng(e), dead(d), from(f) {}
  bool suspected(ProcId p) const override {
    return p == dead && eng->now() >= from;
  }
  Cycles failure_epoch(ProcId p) const override {
    return suspected(p) ? from : kNoFailureEpoch;
  }
  ProcId evacuation_target(ProcId p) const override { return (p + 1) % 4; }
  bool object_lost(ObjectId) const override { return false; }
  bool recovery_pending(ObjectId) const override { return false; }
  Task<> await_object(ObjectId) override {
    throw FtError("recovery failed");
    co_return;  // unreachable; makes this a coroutine
  }
  Cycles send_deadline() const override { return 0; }
  unsigned max_call_retries() const override { return 4; }
};

Task<> call_with_work(World* w, ObjectId obj, Cycles work, int* runs,
                      std::string* error) {
  Ctx ctx{&w->rt, 0};
  try {
    (void)co_await w->rt.call(ctx, obj, CallOpts{4, 2, false},
                              [w, work, runs](Ctx& callee) -> Task<int> {
                                ++*runs;
                                co_await w->rt.compute(callee, work);
                                co_return 0;
                              });
  } catch (const FtError& e) {
    *error = e.what();
  }
}

TEST(Runtime, FailureAfterTheBodyRanReachesTheAwaiter) {
  // The callee's processor is suspected while the body runs, so its reply
  // fails; waiting out the object's recovery then throws. The error
  // reaches the caller once, and the body's frame is freed (a leak
  // checker would report it otherwise).
  World w(4);
  FailingRecovery ft(&w.eng, 2, 1'000);
  w.rt.set_fault_tolerance(&ft);
  const ObjectId obj = w.objects.create(2);
  int runs = 0;
  std::string error;
  sim::detach(call_with_work(&w, obj, 5'000, &runs, &error));
  EXPECT_NO_THROW(w.eng.run());
  EXPECT_EQ(error, "recovery failed");
  EXPECT_EQ(runs, 1);
  const RtStats& s = w.rt.stats();
  EXPECT_EQ(s.remote_calls, 1u);
  EXPECT_EQ(s.replies, 1u);
  EXPECT_EQ(s.ft_recovered_replies, 1u);
  EXPECT_EQ(s.ft_suspect_aborts, 1u);
  EXPECT_EQ(w.net.stats().messages, 1u);  // the request alone
}

/// A body that throws where it runs, at the object's home.
Task<int> faulty_body(Ctx&) {
  throw std::runtime_error("server fault");
  co_return 0;  // unreachable; makes this a coroutine
}

Task<> throwing_local_call(World* w, ObjectId obj, ProcId from,
                           bool synchronous, bool* caught) {
  Ctx ctx{&w->rt, from};
  try {
    if (synchronous) {
      // Not a coroutine: the body callable throws before it makes a task.
      (void)co_await w->rt.call(ctx, obj, CallOpts{},
                                [](Ctx&) -> Task<int> {
                                  throw std::runtime_error("no task");
                                });
    } else {
      (void)co_await w->rt.call(ctx, obj, CallOpts{},
                                [](Ctx& c) { return faulty_body(c); });
    }
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Runtime, ExceptionsInLocalBodiesPropagateToCaller) {
  // Unobserved, and with a tracer installed.
  for (const bool traced : {false, true}) {
    for (const bool synchronous : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "traced " << traced
                                        << ", synchronous " << synchronous);
      World w(4);
      sim::Tracer tracer(w.eng);
      if (traced) w.eng.set_tracer(&tracer);
      const ObjectId obj = w.objects.create(2);
      bool caught = false;
      sim::detach(throwing_local_call(&w, obj, 2, synchronous, &caught));
      EXPECT_NO_THROW(w.eng.run());
      EXPECT_TRUE(caught);
      EXPECT_EQ(w.rt.stats().local_calls, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Errors reach the awaiting coroutine, observed or not: an object id that the
// ObjectSpace never created fails the dispatch, after its locality check,
// with std::out_of_range, and never escapes the engine's run loop.

enum class Access { kCall, kMigrate, kVisitCp, kVisitObj };

Task<int> no_work(Ctx&) { co_return 0; }

Task<> access_unknown(World* w, Access how, ObjectId ghost,
                      std::string* error) {
  Ctx ctx{&w->rt, 0};
  MobileObject mobile(w->rt, ghost, 8);
  try {
    switch (how) {
      case Access::kCall:
        (void)co_await w->rt.call(ctx, ghost, CallOpts{},
                                  [](Ctx&) -> Task<int> { co_return 0; });
        break;
      case Access::kMigrate:
        co_await w->rt.migrate(ctx, ghost, 8);
        break;
      case Access::kVisitCp:
        (void)co_await visit(ctx, Mechanism::kMigration, mobile, CallOpts{}, 8,
                             32, no_work);
        break;
      case Access::kVisitObj:
        (void)co_await visit(ctx, Mechanism::kObjectMigration, mobile,
                             CallOpts{}, 8, 32, no_work);
        break;
    }
  } catch (const std::out_of_range& e) {
    *error = e.what();
  }
}

TEST(Runtime, UnknownObjectsThrowOutOfRangeToTheAwaiterOnBothPaths) {
  for (const Access how : {Access::kCall, Access::kMigrate, Access::kVisitCp,
                           Access::kVisitObj}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "access " << static_cast<int>(how)
                                        << ", traced " << traced);
      World w(4);
      sim::Tracer tracer(w.eng);
      if (traced) w.eng.set_tracer(&tracer);
      const ObjectId known = w.objects.create(1);
      std::string error;
      sim::detach(access_unknown(&w, how, known + 1, &error));
      EXPECT_NO_THROW(w.eng.run());
      EXPECT_NE(error.find("out of range"), std::string::npos) << error;
      // The locality check ran before the lookup failed, and nothing moved.
      EXPECT_EQ(w.rt.stats().breakdown.get(Category::kLocalityCheck),
                w.rt.cost().locality_check);
      EXPECT_EQ(w.net.stats().messages, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// One protocol, observed or not. Each `*OnBothPaths` test compares a run
// with a tracer installed against an unobserved run of the one path. A
// scenario must leave the same events, completion cycle, busy cycles on
// each processor, runtime counters (Table-5 breakdown included) and
// traffic on both.

struct PathOutcome {
  std::size_t events = 0;
  Cycles drained_at = 0;
  std::vector<Cycles> busy;  // per processor
  std::string rt_stats;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t runtime_messages = 0;
  std::uint64_t runtime_words = 0;
  std::vector<ProcId> seen;  // what the scenario observed, in order
  bool operator==(const PathOutcome&) const = default;
};

using Scenario = Task<> (*)(World*, std::vector<ProcId>*);

/// Run `scenario` on a 4-processor machine with one object homed on each
/// processor (object i on processor i).
PathOutcome run_on_path(Scenario scenario, bool traced) {
  World w(4);
  sim::Tracer tracer(w.eng);
  if (traced) w.eng.set_tracer(&tracer);
  for (ProcId p = 0; p < 4; ++p) (void)w.objects.create(p);
  PathOutcome out;
  sim::detach(scenario(&w, &out.seen));
  w.eng.run();
  out.events = w.eng.events_executed();
  out.drained_at = w.eng.now();
  for (ProcId p = 0; p < 4; ++p) {
    out.busy.push_back(w.machine.proc(p).busy_cycles());
  }
  Metrics m;
  put_rt_stats(m, w.rt.stats());
  m.append_json_fields(out.rt_stats);
  const net::NetStats& ns = w.net.stats();
  out.messages = ns.messages;
  out.words = ns.words;
  out.runtime_messages = ns.runtime_messages;
  out.runtime_words = ns.runtime_words;
  return out;
}

void expect_paths_agree(Scenario scenario) {
  const PathOutcome unobserved = run_on_path(scenario, false);
  EXPECT_GT(unobserved.events, 0u);
  EXPECT_EQ(unobserved, run_on_path(scenario, true));
}

Task<> hop_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx ctx{&w->rt, 0};
  co_await w->rt.migrate(ctx, 2, 8);
  seen->push_back(ctx.proc);
  co_await w->rt.migrate(ctx, 2, 8);  // already local
  seen->push_back(ctx.proc);
}

Task<> group_hop_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx a{&w->rt, 0};
  Ctx b{&w->rt, 0};
  std::vector<Ctx*> group{&a, &b};
  co_await w->rt.migrate_group(group, 3, 20);
  seen->push_back(a.proc);
  seen->push_back(b.proc);
  co_await w->rt.migrate_group(group, 3, 20);  // already local
}

Task<> return_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx ctx{&w->rt, 0};
  co_await w->rt.return_home(ctx, 0, 2);  // never left: free
  co_await w->rt.migrate(ctx, 1, 8);
  co_await w->rt.migrate(ctx, 3, 8);
  co_await w->rt.return_home(ctx, 0, 2);
  seen->push_back(ctx.proc);
}

Task<int> report_proc(World* w, Ctx& callee) {
  co_await w->rt.compute(callee, 10);
  co_return static_cast<int>(callee.proc);
}

Task<> local_call_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx ctx{&w->rt, 2};
  const int at = co_await w->rt.call(
      ctx, 2, CallOpts{}, [w](Ctx& c) { return report_proc(w, c); });
  seen->push_back(static_cast<ProcId>(at));
}

Task<> remote_call_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx ctx{&w->rt, 0};
  const int at = co_await w->rt.call(
      ctx, 1, CallOpts{}, [w](Ctx& c) { return report_proc(w, c); });
  seen->push_back(static_cast<ProcId>(at));
  // A body that migrates on: its reply short-circuits from processor 3.
  const int end = co_await w->rt.call(
      ctx, 2, CallOpts{2, 2, true}, [w](Ctx& c) -> Task<int> {
        co_await w->rt.migrate(c, 3, 8);
        co_return co_await report_proc(w, c);
      });
  seen->push_back(static_cast<ProcId>(end));
}

TEST(Runtime, HopIsTheSameOnBothPaths) { expect_paths_agree(hop_scenario); }

TEST(Runtime, GroupHopIsTheSameOnBothPaths) {
  expect_paths_agree(group_hop_scenario);
}

TEST(Runtime, ReturnHomeIsTheSameOnBothPaths) {
  expect_paths_agree(return_scenario);
}

TEST(Runtime, LocalCallIsTheSameOnBothPaths) {
  expect_paths_agree(local_call_scenario);
}

TEST(Runtime, RemoteCallIsTheSameOnBothPaths) {
  expect_paths_agree(remote_call_scenario);
}

Task<> visit_scenario(World* w, std::vector<ProcId>* seen) {
  Ctx ctx{&w->rt, 0};
  MobileObject one(w->rt, 1, 8);
  MobileObject two(w->rt, 2, 8);
  MobileObject three(w->rt, 3, 8);
  const auto body = [w](Ctx& c) { return report_proc(w, c); };
  const auto at = [&](Mechanism mech, MobileObject& obj) {
    return visit(ctx, mech, obj, CallOpts{}, 8, 32, body);
  };
  // CP to a remote object, then to the one it is now beside.
  seen->push_back(static_cast<ProcId>(co_await at(Mechanism::kMigration, one)));
  seen->push_back(static_cast<ProcId>(co_await at(Mechanism::kMigration, one)));
  // TM on to processor 2; RPC from there, remote and local.
  seen->push_back(
      static_cast<ProcId>(co_await at(Mechanism::kThreadMigration, two)));
  seen->push_back(static_cast<ProcId>(co_await at(Mechanism::kRpc, three)));
  seen->push_back(static_cast<ProcId>(co_await at(Mechanism::kRpc, two)));
  // OBJ pulls object 3 to processor 2.
  seen->push_back(
      static_cast<ProcId>(co_await at(Mechanism::kObjectMigration, three)));
  seen->push_back(w->objects.home_of(3));
  co_await w->rt.return_home(ctx, 0, 2);
  seen->push_back(ctx.proc);
}

TEST(Runtime, VisitIsTheSameOnBothPaths) {
  const PathOutcome unobserved = run_on_path(visit_scenario, false);
  EXPECT_EQ(unobserved.seen, (std::vector<ProcId>{1, 1, 2, 3, 2, 2, 2, 0}));
  expect_paths_agree(visit_scenario);
}

// A visit chains a hop and a call; observed or not, an error reaches the
// visiting coroutine. One the hop raises ends the visit before the call
// starts, so only the hop's locality check is charged.

enum class VisitError { kHop, kCall, kBody };

Task<int> throwing_body(Ctx&) {
  throw std::runtime_error("body fault");
  co_return 0;  // unreachable; makes this a coroutine
}

Task<> visit_failing(World* w, VisitError how, std::string* error) {
  Ctx ctx{&w->rt, 0};
  MobileObject ghost(w->rt, 7, 8);  // never created
  MobileObject there(w->rt, 2, 8);
  try {
    switch (how) {
      case VisitError::kHop:
        (void)co_await visit(ctx, Mechanism::kMigration, ghost, CallOpts{}, 8,
                             32, no_work);
        break;
      case VisitError::kCall:
        (void)co_await visit(ctx, Mechanism::kRpc, ghost, CallOpts{}, 8, 32,
                             no_work);
        break;
      case VisitError::kBody:
        (void)co_await visit(ctx, Mechanism::kMigration, there, CallOpts{}, 8,
                             32, throwing_body);
        break;
    }
  } catch (const std::exception& e) {
    *error = e.what();
  }
}

TEST(Runtime, VisitErrorsReachTheAwaiterOnBothPaths) {
  struct Expected {
    VisitError how;
    const char* error;
    unsigned locality_checks;
    std::uint64_t migrations;
    std::uint64_t local_calls;
    std::uint64_t messages;
  };
  const Expected cases[] = {
      {VisitError::kHop, "out of range", 1, 0, 0, 0},
      {VisitError::kCall, "out of range", 1, 0, 0, 0},
      {VisitError::kBody, "body fault", 2, 1, 1, 1},
  };
  for (const Expected& e : cases) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "error " << static_cast<int>(e.how)
                                        << ", traced " << traced);
      World w(4);
      sim::Tracer tracer(w.eng);
      if (traced) w.eng.set_tracer(&tracer);
      for (ProcId p = 0; p < 4; ++p) (void)w.objects.create(p);
      std::string error;
      sim::detach(visit_failing(&w, e.how, &error));
      EXPECT_NO_THROW(w.eng.run());
      EXPECT_NE(error.find(e.error), std::string::npos) << error;
      const RtStats& s = w.rt.stats();
      EXPECT_EQ(s.breakdown.get(Category::kLocalityCheck),
                e.locality_checks * w.rt.cost().locality_check);
      EXPECT_EQ(s.migrations, e.migrations);
      EXPECT_EQ(s.local_calls, e.local_calls);
      EXPECT_EQ(s.remote_calls, 0u);
      EXPECT_EQ(w.net.stats().messages, e.messages);
    }
  }
}

Task<> deep_chain(World* w, std::vector<ObjectId> objs, std::size_t i,
                  int* depth_reached) {
  if (i >= objs.size()) co_return;
  Ctx ctx{&w->rt, 0};
  (void)co_await w->rt.call(
      ctx, objs[i], CallOpts{4, 2, false},
      [w, &objs, i, depth_reached](Ctx& callee) -> Task<int> {
        co_await w->rt.compute(callee, 5);
        ++*depth_reached;
        // Nested remote call from within a method body: the callee's own
        // activation becomes the caller of the next level.
        if (i + 1 < objs.size()) {
          (void)co_await w->rt.call(callee, objs[i + 1],
                                    CallOpts{4, 2, false},
                                    [w, depth_reached](Ctx& c2) -> Task<int> {
                                      co_await w->rt.compute(c2, 5);
                                      ++*depth_reached;
                                      co_return 0;
                                    });
        }
        co_return 0;
      });
}

TEST(Runtime, NestedRemoteCallsRelayThroughIntermediateProcessors) {
  World w(4);
  std::vector<ObjectId> objs{w.objects.create(1), w.objects.create(2)};
  int depth = 0;
  sim::detach(deep_chain(&w, objs, 0, &depth));
  w.eng.run();
  EXPECT_EQ(depth, 2);
  // 0->1 call, 1->2 nested call, 2->1 reply, 1->0 reply: four messages —
  // nested RPC does NOT short-circuit; only migration does.
  EXPECT_EQ(w.net.stats().messages, 4u);
}

TEST(Runtime, HwCostModelSpeedsUpMigration) {
  auto run = [](bool hw_support) {
    apps::StackConfig cfg = apps::bare_config();
    cfg.scheme.hw_support = hw_support;
    World w(4, cfg);
    const ObjectId obj = w.objects.create(3);
    ProcId end = 0;
    sim::detach(migrate_once(&w, obj, 0, &end));
    w.eng.run();
    return w.eng.now();
  };
  const Cycles sw = run(false);
  const Cycles hw = run(true);
  EXPECT_LT(hw, sw);
  EXPECT_GT(static_cast<double>(sw - hw) / static_cast<double>(sw), 0.2);
}

}  // namespace
}  // namespace cm::core
