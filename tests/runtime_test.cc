#include "core/runtime.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/object.h"
#include "net/constant_net.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::core {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

struct World {
  sim::Engine eng;
  sim::Machine machine;
  net::ConstantNetwork net;
  ObjectSpace objects;
  Runtime rt;

  explicit World(ProcId nprocs, CostModel cost = CostModel::software())
      : machine(eng, nprocs), net(eng), rt(machine, net, objects, cost) {}
};

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
  auto run = [](CostModel cost) {
    World w(4, cost);
    const ObjectId obj = w.objects.create(3);
    ProcId end = 0;
    sim::detach(migrate_once(&w, obj, 0, &end));
    w.eng.run();
    return w.eng.now();
  };
  const Cycles sw = run(CostModel::software());
  const Cycles hw = run(CostModel::software().with_hw_message().with_hw_oid());
  EXPECT_LT(hw, sw);
  EXPECT_GT(static_cast<double>(sw - hw) / static_cast<double>(sw), 0.2);
}

}  // namespace
}  // namespace cm::core
