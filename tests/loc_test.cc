#include "loc/locator.h"

#include <gtest/gtest.h>

#include <exception>
#include <stdexcept>

#include "apps/workload.h"
#include "core/ft.h"
#include "core/mobile.h"

namespace cm::loc {

class LocatorTestPeer {
 public:
  static void on_create(Locator& loc, ObjectId id, ProcId home) {
    loc.on_create(id, home);
  }
};

namespace {

using core::Ctx;
using core::MobileObject;
using core::ObjectId;
using sim::ProcId;
using sim::Task;

// ---------------------------------------------------------------------------
// TranslationCache

TEST(TranslationCache, LruEvictionOrder) {
  TranslationCache c(2);
  EXPECT_FALSE(c.put(1, 10));
  EXPECT_FALSE(c.put(2, 20));
  EXPECT_TRUE(c.put(3, 30));  // evicts 1 (least recently used)
  EXPECT_FALSE(c.get(1).has_value());
  EXPECT_EQ(c.get(2), std::optional<ProcId>(20));
  EXPECT_EQ(c.get(3), std::optional<ProcId>(30));
}

TEST(TranslationCache, GetRefreshesRecency) {
  TranslationCache c(2);
  c.put(1, 10);
  c.put(2, 20);
  EXPECT_EQ(c.get(1), std::optional<ProcId>(10));  // 1 is now most recent
  EXPECT_TRUE(c.put(3, 30));                       // evicts 2, not 1
  EXPECT_EQ(c.get(1), std::optional<ProcId>(10));
  EXPECT_FALSE(c.get(2).has_value());
}

TEST(TranslationCache, PeekDoesNotRefresh) {
  TranslationCache c(2);
  c.put(1, 10);
  c.put(2, 20);
  EXPECT_EQ(c.peek(1), std::optional<ProcId>(10));  // no recency change
  EXPECT_TRUE(c.put(3, 30));                        // still evicts 1
  EXPECT_FALSE(c.get(1).has_value());
}

TEST(TranslationCache, UpdateInPlaceAndErase) {
  TranslationCache c(2);
  c.put(1, 10);
  EXPECT_FALSE(c.put(1, 11));  // update, no eviction
  EXPECT_EQ(c.get(1), std::optional<ProcId>(11));
  c.erase(1);
  EXPECT_FALSE(c.get(1).has_value());
  EXPECT_EQ(c.size(), 0u);
}

TEST(TranslationCache, CapacityZeroDisablesCaching) {
  TranslationCache c(0);
  EXPECT_FALSE(c.put(1, 10));
  EXPECT_FALSE(c.get(1).has_value());
  EXPECT_EQ(c.size(), 0u);
}

// ---------------------------------------------------------------------------
// Locator over a small world

using World = apps::Stack;

LocatorConfig distributed() {
  LocatorConfig cfg;
  cfg.mode = Locality::kDistributed;
  return cfg;
}

Task<> call_from(World* w, ObjectId id, ProcId p) {
  Ctx ctx{&w->rt, p};
  (void)co_await w->rt.call(ctx, id, core::CallOpts{2, 2, true},
                            [w](Ctx& c) -> Task<int> {
                              co_await w->rt.compute(c, 5);
                              co_return 0;
                            });
}

Task<> attract_from(World* w, MobileObject* m, ProcId p) {
  Ctx ctx{&w->rt, p};
  co_await m->attract(ctx);
}

TEST(Locator, OracleModeIsInert) {
  World plain(4);
  const ObjectId a = plain.objects.create(1);
  sim::detach(call_from(&plain, a, 2));
  plain.eng.run();

  World with(4);
  Locator loc(with.rt, LocatorConfig{});  // defaults to kOracle
  EXPECT_FALSE(loc.attached());
  EXPECT_EQ(with.rt.locator(), nullptr);
  const ObjectId b = with.objects.create(1);
  sim::detach(call_from(&with, b, 2));
  with.eng.run();

  // Bit-identical to a world that never constructed a Locator.
  EXPECT_EQ(with.eng.now(), plain.eng.now());
  EXPECT_EQ(with.net.stats().messages, plain.net.stats().messages);
  EXPECT_EQ(loc.stats().lookups, 0u);
  EXPECT_EQ(loc.stats().deliveries, 0u);
}

TEST(Locator, StaticObjectWarmsTheCache) {
  World w(4);
  Locator loc(w.rt, distributed());
  ASSERT_TRUE(loc.attached());
  const ObjectId id = w.objects.create(1);  // id 0 -> shard 0 (hash-home)
  EXPECT_EQ(loc.shard_of(id), 0u);
  EXPECT_EQ(loc.directory_owner(id), 1u);

  sim::detach(call_from(&w, id, 2));
  w.eng.run();
  sim::detach(call_from(&w, id, 2));
  w.eng.run();

  const LocStats& s = loc.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.cache_misses, 1u);  // first call consults the directory...
  EXPECT_EQ(s.cache_hits, 1u);    // ...second call hits the hint
  EXPECT_EQ(s.dir_queries, 1u);
  EXPECT_EQ(s.deliveries, 2u);
  EXPECT_EQ(s.bounces, 0u);  // hints were never stale
  EXPECT_EQ(s.forwarded, 0u);
  EXPECT_EQ(loc.cached_hint(2, id), std::optional<ProcId>(1));
}

TEST(Locator, LocalCallsBypassTheDirectory) {
  World w(4);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(2);
  sim::detach(call_from(&w, id, 2));  // caller co-resident with the object
  w.eng.run();
  EXPECT_EQ(loc.stats().local_hits, 1u);
  EXPECT_EQ(loc.stats().lookups, 0u);
  EXPECT_EQ(w.net.stats().messages, 0u);
}

TEST(Locator, MoveLeavesForwardingPointerAndFlipsDirectory) {
  World w(4);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(1);
  MobileObject m(w.rt, id, 16);

  sim::detach(attract_from(&w, &m, 2));
  w.eng.run();

  EXPECT_EQ(w.objects.home_of(id), 2u);
  EXPECT_EQ(loc.directory_owner(id), 2u);
  EXPECT_EQ(loc.forwarding_pointer(1, id), std::optional<ProcId>(2));
  EXPECT_FALSE(loc.forwarding_pointer(2, id).has_value());
  EXPECT_EQ(loc.stats().moves, 1u);
  EXPECT_EQ(loc.stats().move_races, 0u);
  EXPECT_EQ(m.moves(), 1u);
  EXPECT_EQ(w.rt.stats().object_moves, 1u);
  EXPECT_EQ(w.rt.stats().moved_object_words, 16u);
}

TEST(Locator, StaleHintBouncesAlongChainAndCompresses) {
  World w(5);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(1);
  MobileObject m(w.rt, id, 16);

  // Warm proc 0's hint: object at 1.
  sim::detach(call_from(&w, id, 0));
  w.eng.run();
  ASSERT_EQ(loc.cached_hint(0, id), std::optional<ProcId>(1));

  // Drag the object 1 -> 2 -> 3, leaving a two-pointer chain behind.
  sim::detach(attract_from(&w, &m, 2));
  w.eng.run();
  sim::detach(attract_from(&w, &m, 3));
  w.eng.run();
  ASSERT_EQ(loc.forwarding_pointer(1, id), std::optional<ProcId>(2));
  ASSERT_EQ(loc.forwarding_pointer(2, id), std::optional<ProcId>(3));

  // Call through the stale hint: the request lands on 1, bounces twice.
  sim::detach(call_from(&w, id, 0));
  w.eng.run();

  const LocStats& s = loc.stats();
  EXPECT_EQ(s.bounces, 2u);
  EXPECT_EQ(s.max_chain, 2u);
  EXPECT_EQ(s.forwarded, 1u);
  EXPECT_EQ(s.compressions, 1u);
  EXPECT_EQ(s.fwd_fallbacks, 0u);
  // Path compression: every stale hop and the requester now point at 3.
  EXPECT_EQ(loc.forwarding_pointer(1, id), std::optional<ProcId>(3));
  EXPECT_EQ(loc.forwarding_pointer(2, id), std::optional<ProcId>(3));
  EXPECT_EQ(loc.cached_hint(0, id), std::optional<ProcId>(3));

  // The compressed chain is one hop from anywhere: calling again through
  // the old first hop takes zero bounces.
  sim::detach(call_from(&w, id, 0));
  w.eng.run();
  EXPECT_EQ(loc.stats().bounces, 2u);  // unchanged
}

TEST(Locator, ConcurrentMoversSerialiseAtTheShard) {
  World w(8);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(7);
  MobileObject m(w.rt, id, 8);

  for (ProcId p = 0; p < 4; ++p) sim::detach(attract_from(&w, &m, p));
  w.eng.run();

  // All four movers are distinct processors and queue FIFO at the shard, so
  // each finds the object elsewhere when its turn comes: four real moves.
  EXPECT_EQ(loc.stats().moves, 4u);
  EXPECT_EQ(loc.stats().move_races, 0u);
  EXPECT_EQ(m.moves(), 4u);
  EXPECT_LT(w.objects.home_of(id), 4u);
  // The directory's committed owner agrees with ground truth once quiesced.
  EXPECT_EQ(loc.directory_owner(id), w.objects.home_of(id));
}

TEST(Locator, RacingMoversFromOneProcessorMoveOnce) {
  World w(4);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(3);
  MobileObject m(w.rt, id, 16);

  // Both pass the free local check (object at 3), both issue MOVE-REQUESTs;
  // the second finds the object already home after the first's commit.
  sim::detach(attract_from(&w, &m, 0));
  sim::detach(attract_from(&w, &m, 0));
  w.eng.run();

  EXPECT_EQ(loc.stats().moves, 1u);
  EXPECT_EQ(loc.stats().move_races, 1u);
  EXPECT_EQ(m.moves(), 1u);
  EXPECT_EQ(w.rt.stats().moved_object_words, 16u);
  EXPECT_EQ(w.objects.home_of(id), 0u);
  EXPECT_EQ(loc.directory_owner(id), 0u);
}

TEST(Locator, NonSequentialObjectIdThrowsLogicError) {
  World w(4);
  Locator loc(w.rt, distributed());
  (void)w.objects.create(1);
  try {
    LocatorTestPeer::on_create(loc, 5, 2);
    FAIL() << "no exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "Locator::on_create: non-sequential object id 5 "
                 "(directory size 1)");
  }
  // The directory is as it was: the next sequential id still registers.
  const ObjectId next = w.objects.create(3);
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(loc.directory_owner(next), 3u);
}

/// A call from `p` to `id` that reports the exception it ends with.
Task<> call_catching(World* w, ObjectId id, ProcId p,
                     std::exception_ptr* error) {
  try {
    co_await call_from(w, id, p);
  } catch (...) {
    *error = std::current_exception();
  }
}

TEST(Locator, ObjectLostWithoutFtThrowsLogicErrorToTheCaller) {
  World w(4);
  Locator loc(w.rt, distributed());
  const ObjectId id = w.objects.create(1);
  // Moved behind the locator's back: the directory still names 1, and 1
  // holds no forwarding pointer, so the chase from 1 finds nothing.
  w.objects.move(id, 3);
  std::exception_ptr error;
  sim::detach(call_catching(&w, id, 2, &error));
  w.eng.run();
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const core::FtError& e) {
    FAIL() << "a lost op, not a broken invariant: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "Locator::forward: object 0 lost (no forwarding pointer at "
                 "proc 1 and directory names it)");
  }
  EXPECT_EQ(loc.stats().fwd_fallbacks, 1u);
}

TEST(Locator, OwnerHomePolicyPlacesShardAtCreationHome) {
  World w(4);
  LocatorConfig cfg = distributed();
  cfg.directory = DirectoryPolicy::kOwnerHome;
  Locator loc(w.rt, cfg);
  const ObjectId id = w.objects.create(3);
  EXPECT_EQ(loc.shard_of(id), 3u);  // hash-home would say 0
}

TEST(Locator, DistributedRunsAreDeterministic) {
  apps::CountingConfig cfg;
  cfg.scheme.mechanism = core::Mechanism::kMigration;
  cfg.requesters = 8;
  cfg.locator.mode = Locality::kDistributed;
  const apps::RunStats a = apps::run_counting(cfg);
  const apps::RunStats b = apps::run_counting(cfg);
  EXPECT_EQ(a.completed_at, b.completed_at);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.loc.lookups, b.loc.lookups);
  EXPECT_EQ(a.loc.cache_hits, b.loc.cache_hits);
  EXPECT_EQ(a.loc.dir_queries, b.loc.dir_queries);
  EXPECT_EQ(a.loc.bounces, b.loc.bounces);
  EXPECT_GT(a.loc.lookups, 0u);  // the locator actually ran
  EXPECT_TRUE(a.locator_enabled);
}

}  // namespace
}  // namespace cm::loc
