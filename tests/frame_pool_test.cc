// Allocation regression test for the coroutine frame pool
// (sim/frame_pool.h) and the host structures built per simulated object. A
// binary of its own, because it replaces the global operator new with one
// that counts: once warm, a simulation whose frames all come from the pool
// makes no global allocation at all.
#include "sim/frame_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/btree.h"
#include "apps/counting_network.h"
#include "apps/workload.h"
#include "check/checker.h"
#include "core/mechanism.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/mesh_net.h"
#include "shmem/coherent_memory.h"
#include "shmem/sync.h"
#include "sim/async_mutex.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace {

std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_frees{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Every replaceable form without an alignment argument, so that no block
// crosses between this allocator and a sanitizer runtime's.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace cm {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::size_t frees() { return g_frees.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// Steady state, on the runtime paths of the benchmark's workloads.

constexpr Cycles kWarmup = 200'000;
constexpr Cycles kMeasured = 200'000;

/// A bare machine on the 2-D mesh, as in the paper's workloads; under shared
/// memory, with `pointers` hardware sharer pointers per line (0: full map).
apps::StackConfig on_mesh(core::Mechanism mech = core::Mechanism::kRpc,
                          unsigned pointers = 0) {
  apps::StackConfig cfg = apps::bare_config(mech);
  cfg.mesh = true;
  cfg.limitless_pointers = pointers;
  return cfg;
}

struct World : apps::Stack {
  bool stop = false;
  long ops = 0;

  explicit World(ProcId nprocs, const apps::StackConfig& cfg = on_mesh())
      : Stack(nprocs, cfg) {}
};

struct Measured {
  std::size_t allocs;  // global allocations in the window
  long ops;            // client operations completed in it
};

/// Runs `warmup` cycles, then one measured window, calling `at_edge` at
/// both of its ends; then stops the clients and drains the engine, so that
/// every frame is freed.
template <class W, class F>
Measured measure(W& w, Cycles warmup, F&& at_edge) {
  w.eng.run_until(warmup);
  at_edge();
  const std::size_t allocs0 = allocs();
  const long ops0 = w.ops;
  w.eng.run_until(warmup + kMeasured);
  const Measured out{allocs() - allocs0, w.ops - ops0};
  at_edge();
  w.stop = true;
  w.eng.run();
  return out;
}

template <class W>
Measured measure(W& w) {
  return measure(w, kWarmup, [] {});
}

Task<> cp_requester(World* w, apps::CountingNetwork* cn, ProcId home) {
  core::Ctx ctx{&w->rt, home};
  for (unsigned i = 0; !w->stop; ++i) {
    (void)co_await cn->get_next(ctx, core::Mechanism::kMigration,
                                (home + i) % cn->width());
    co_await w->rt.return_home(ctx, home, 2);
    ++w->ops;
  }
}

TEST(FramePool, WarmCountingNetworkMigrationMakesNoGlobalAllocation) {
  constexpr unsigned kBalancers = 24;  // Bitonic[8]
  constexpr unsigned kRequesters = 64;
  World w(kBalancers + kRequesters);
  apps::CountingNetwork cn(w.rt, nullptr, apps::CountingNetwork::Params{});
  ASSERT_EQ(cn.num_balancers(), kBalancers);
  for (unsigned i = 0; i < kRequesters; ++i) {
    sim::detach(cp_requester(&w, &cn, kBalancers + i));
  }
  const Measured m = measure(w);
  EXPECT_GT(m.ops, 100);
  EXPECT_EQ(m.allocs, 0u) << "over " << m.ops << " ops";
  EXPECT_TRUE(cn.has_step_property());
}

Task<> rpc_client(World* w, const std::vector<core::ObjectId>* objs,
                  ProcId home) {
  core::Ctx ctx{&w->rt, home};
  for (unsigned i = 0; !w->stop; ++i) {
    (void)co_await w->rt.call(
        ctx, (*objs)[(home + i) % objs->size()], core::CallOpts{},
        [w](core::Ctx& callee) -> Task<int> {
          co_await w->rt.compute(callee, 10);
          co_return 0;
        });
    ++w->ops;
  }
}

TEST(FramePool, WarmRemoteCallLoopMakesNoGlobalAllocation) {
  constexpr unsigned kHomes = 48;
  constexpr unsigned kClients = 16;
  World w(kHomes + kClients);
  std::vector<core::ObjectId> objs;
  for (ProcId p = 0; p < kHomes; ++p) objs.push_back(w.objects.create(p));
  for (unsigned i = 0; i < kClients; ++i) {
    sim::detach(rpc_client(&w, &objs, kHomes + i));
  }
  const Measured m = measure(w);
  EXPECT_GT(m.ops, 100);
  EXPECT_EQ(m.allocs, 0u) << "over " << m.ops << " ops";
  EXPECT_EQ(w.rt.stats().local_calls, 0u);
}

/// One of the hold loop's pending events: a Continuation that, each time it
/// runs, schedules itself again from its own lane. A near holder comes back
/// 0, 4 or 8 cycles later, so holders of many lanes meet in one cycle, in
/// rising and falling label order; a far holder comes back past the wheel,
/// on the same 4-cycle grid, so overflow events tie wheel events.
struct Holder : sim::Continuation {
  sim::Engine* eng = nullptr;
  sim::Rng* rng = nullptr;
  ProcId home = 0;
  bool far = false;
  long* fired = nullptr;

  static constexpr Cycles kPastTheWheel = sim::CalendarQueue::kSlots;

  static void step(sim::Continuation* c) {
    auto* const h = static_cast<Holder*>(c);
    ++*h->fired;
    const Cycles d = h->far ? kPastTheWheel + 4 * h->rng->below(128)
                            : 4 * h->rng->below(3);
    h->eng->resume_at_on(h->home, h->eng->now() + d, h);
  }
};

TEST(FramePool, WarmEngineHoldLoopMakesNoGlobalAllocation) {
  // The event queue's own promise: its chain pool and overflow heap stop
  // growing once warm, so a simulation that keeps the same number of
  // events pending makes no allocation in the engine.
  constexpr unsigned kHolders = 100;
  constexpr unsigned kFar = 10;
  constexpr Cycles kWarm = 20'000;
  long fired = 0;
  sim::Rng rng(26);
  std::array<Holder, kHolders> holders;
  sim::Engine eng;
  for (unsigned i = 0; i < kHolders; ++i) {
    Holder& h = holders[i];
    h.run = &Holder::step;
    h.eng = &eng;
    h.rng = &rng;
    h.home = static_cast<ProcId>(i);
    h.far = i < kFar;
    h.fired = &fired;
    eng.resume_at_on(h.home, 4 * (i % 3), &h);
  }
  eng.run_until(kWarm);
  const std::size_t allocs0 = allocs();
  const long fired0 = fired;
  eng.run_until(2 * kWarm);
  const std::size_t made = allocs() - allocs0;
  EXPECT_EQ(made, 0u) << "over " << fired - fired0 << " events";
  EXPECT_GT(fired - fired0, 100'000);
  EXPECT_EQ(eng.pending(), kHolders);
}

// ---------------------------------------------------------------------------
// Frames per runtime operation. A host thread's frame pool starts empty, so
// on a fresh thread each coroutine frame an operation makes is one global
// allocation. A run of the same operation on this thread first warms
// everything else (the event queue's records and lanes), so what the fresh
// thread allocates is the operation's frames.

/// Runs `op(&w)` to completion once, then again on a fresh host thread,
/// and returns what `count(allocs0)` reads there once the second run is
/// done, `allocs0` being the global allocations before it started.
template <class Op, class Count>
std::size_t on_fresh_thread(World& w, Op op, Count count) {
  sim::detach(op(&w));
  w.eng.run();
  std::size_t made = 0;
  std::thread fresh([&w, &op, &count, &made] {
    Task<> t = op(&w);
    const std::size_t allocs0 = allocs();
    t.start();
    w.eng.run();
    made = count(allocs0);  // `t`'s own frame is still alive
    EXPECT_TRUE(t.done());
  });
  fresh.join();
  return made;
}

/// The coroutine frames `op(&w)` makes, besides its own, when run to
/// completion.
template <class Op>
std::size_t frames_of(World& w, Op op) {
  return on_fresh_thread(
      w, op, [](std::size_t allocs0) { return allocs() - allocs0; });
}

/// Empties this host thread's frame pool and returns the number of blocks
/// it held: each block the pool hands out without the global allocator.
std::size_t drain_frame_pool() {
  std::size_t held = 0;
  for (std::size_t n = sim::FramePool::kGranule;
       n <= sim::FramePool::kMaxPooled; n += sim::FramePool::kGranule) {
    for (;;) {
      const std::size_t allocs0 = allocs();
      void* const block = sim::FramePool::allocate(n);
      const bool pooled = allocs() == allocs0;
      ::operator delete(block);
      if (!pooled) break;
      ++held;
    }
  }
  return held;
}

/// frames_of, counting frames instead of global allocations: after the
/// operation every frame it made sits in the fresh thread's pool. An
/// observer allocates records and clocks of its own, which this ignores.
template <class Op>
std::size_t pooled_frames_of(World& w, Op op) {
  return on_fresh_thread(w, op, [](std::size_t) { return drain_frame_pool(); });
}

Task<int> work_at_home(World* w, core::Ctx& callee) {
  co_await w->rt.compute(callee, 10);
  co_return 0;
}

// The runtime's protocols, one operation each, on a ProtocolWorld.

/// Four processors; object kThere lives on processor 3, kHere on 2.
struct ProtocolWorld : World {
  static constexpr core::ObjectId kThere = 0;
  static constexpr core::ObjectId kHere = 1;

  ProtocolWorld() : World(4) {
    EXPECT_EQ(objects.create(3), kThere);
    EXPECT_EQ(objects.create(2), kHere);
  }
};

Task<> hop(World* w) {
  core::Ctx ctx{&w->rt, 0};
  co_await w->rt.migrate(ctx, ProtocolWorld::kThere, 8);
  EXPECT_EQ(ctx.proc, 3u);
}

Task<> group_hop(World* w) {
  core::Ctx a{&w->rt, 0};
  core::Ctx b{&w->rt, 0};
  const std::vector<core::Ctx*> group{&a, &b};
  co_await w->rt.migrate_group(group, ProtocolWorld::kThere, 8);
  EXPECT_EQ(b.proc, 3u);
}

Task<> short_circuit_return(World* w) {
  core::Ctx ctx{&w->rt, 3};
  co_await w->rt.return_home(ctx, 0, 2);
  EXPECT_EQ(ctx.proc, 0u);
}

Task<> local_call(World* w) {
  core::Ctx ctx{&w->rt, 2};
  (void)co_await w->rt.call(ctx, ProtocolWorld::kHere, core::CallOpts{},
                            [w](core::Ctx& c) { return work_at_home(w, c); });
}

Task<> remote_call(World* w) {
  core::Ctx ctx{&w->rt, 0};
  (void)co_await w->rt.call(ctx, ProtocolWorld::kHere, core::CallOpts{},
                            [w](core::Ctx& c) { return work_at_home(w, c); });
}

/// A visit under `mech` to `obj` from processor `from`, or under OBJ from
/// the processor after the object's current home, so that every run
/// attracts it.
auto visit(core::Mechanism mech, core::ObjectId obj, ProcId from = 0) {
  return [mech, obj, from](World* w) -> Task<> {
    const ProcId at = mech == core::Mechanism::kObjectMigration
                          ? (w->objects.home_of(obj) + 1) % 4
                          : from;
    core::Ctx ctx{&w->rt, at};
    core::MobileObject mobile(w->rt, obj, 8);
    (void)co_await core::visit(
        ctx, mech, mobile, core::CallOpts{}, 8, 32,
        [w](core::Ctx& c) { return work_at_home(w, c); });
  };
}

TEST(FramePool, FrameFreeHopReturnAndLocalCallMakeNoFrameOfTheirOwn) {
  ProtocolWorld w;
  EXPECT_EQ(frames_of(w, hop), 0u);
  // The group vector is the one allocation that is not a frame.
  EXPECT_EQ(frames_of(w, group_hop), 1u);
  EXPECT_EQ(frames_of(w, short_circuit_return), 0u);
  EXPECT_EQ(frames_of(w, local_call), 1u);   // the body's
  EXPECT_EQ(frames_of(w, remote_call), 1u);  // the body's
  EXPECT_EQ(w.rt.stats().migrations, 4u);
  EXPECT_EQ(w.rt.stats().local_calls, 2u);
  EXPECT_EQ(w.rt.stats().remote_calls, 2u);
}

TEST(FramePool, FrameFreeVisitMakesOnlyItsBodysFrames) {
  using core::Mechanism;
  constexpr core::ObjectId kThere = ProtocolWorld::kThere;
  ProtocolWorld w;
  // The body's, after a hop or none, and around a remote call.
  EXPECT_EQ(frames_of(w, visit(Mechanism::kMigration, kThere)), 1u);
  EXPECT_EQ(frames_of(w, visit(Mechanism::kMigration, ProtocolWorld::kHere, 2)),
            1u);
  EXPECT_EQ(frames_of(w, visit(Mechanism::kThreadMigration, kThere)), 1u);
  EXPECT_EQ(frames_of(w, visit(Mechanism::kRpc, kThere)), 1u);
  const core::RtStats& s = w.rt.stats();
  EXPECT_EQ(s.migrations, 4u);
  EXPECT_EQ(s.migrations_local, 2u);
  EXPECT_EQ(s.local_calls, 6u);
  EXPECT_EQ(s.remote_calls, 2u);
}

Task<> reliable_transfer(World* w) {
  const bool delivered = co_await w->rt.transfer(0, 3, 8);
  EXPECT_TRUE(delivered);
}

TEST(FramePool, ReliableTransferMakesNoFrameOfItsOwn) {
  // Under an active plan a runtime message rides the reliable transport,
  // whose send record settles the transfer, whether the plan perturbs
  // nothing (its window is empty) or duplicates every data and ack copy.
  for (const bool perturbed : {false, true}) {
    SCOPED_TRACE(perturbed);
    apps::StackConfig cfg = on_mesh();
    cfg.faults.rates.duplicate = 1.0;
    if (!perturbed) cfg.faults.window_end = 0;
    World w(4, cfg);
    EXPECT_EQ(pooled_frames_of(w, reliable_transfer), 0u);
    EXPECT_EQ(w.rt.stats().reliable_sends, 2u);
    EXPECT_EQ(w.rt.stats().dedup_hits, perturbed ? 2u : 0u);
  }
}

TEST(FramePool, ObserversLeaveEveryProtocolsFramesAsTheyAre) {
  using core::Mechanism;
  enum class Observer { kNone, kTracer, kChecker };
  for (const Observer observer : {Observer::kNone, Observer::kTracer,
                                   Observer::kChecker}) {
    SCOPED_TRACE(static_cast<int>(observer));
    ProtocolWorld w;
    sim::Tracer tracer(w.eng);
    check::Checker checker(w.eng, 4);
    if (observer == Observer::kTracer) w.eng.set_tracer(&tracer);
    if (observer == Observer::kChecker) w.eng.set_checker(&checker);
    const auto frames = [&w](auto op) { return pooled_frames_of(w, op); };
    constexpr core::ObjectId kThere = ProtocolWorld::kThere;
    EXPECT_EQ(frames(hop), 0u);
    EXPECT_EQ(frames(group_hop), 0u);
    EXPECT_EQ(frames(short_circuit_return), 0u);
    EXPECT_EQ(frames(local_call), 1u);
    EXPECT_EQ(frames(remote_call), 1u);
    EXPECT_EQ(frames(visit(Mechanism::kMigration, kThere)), 1u);
    EXPECT_EQ(frames(visit(Mechanism::kMigration, ProtocolWorld::kHere, 2)),
              1u);
    EXPECT_EQ(frames(visit(Mechanism::kThreadMigration, kThere)), 1u);
    EXPECT_EQ(frames(visit(Mechanism::kRpc, kThere)), 1u);
    // The attraction's and the hook's that awaits it; the body's reuses a
    // block one of them freed.
    EXPECT_EQ(frames(visit(Mechanism::kObjectMigration, kThere)), 2u);
    EXPECT_EQ(w.rt.stats().object_moves, 2u);
    if (observer == Observer::kChecker) {
      checker.finalize();
      EXPECT_EQ(checker.violations(), 0u);
    }
  }
}

TEST(FramePool, CountingNetworkGetNextMakesAPinnedNumberOfFrames) {
  constexpr ProcId kRequester = 24;  // past Bitonic[8]'s 24 balancers
  World w(kRequester + 1);
  apps::CountingNetwork cn(w.rt, nullptr, apps::CountingNetwork::Params{});
  apps::CountingNetwork* const net = &cn;
  // Six balancer visits, each a CP hop and a local call, a counter visit
  // beside the last balancer, then the short-circuit return: the
  // traversal's frame and one body frame at a time (3 when each visit
  // made a frame of its own around the body's).
  const auto get_next = [net](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, kRequester};
    (void)co_await net->get_next(ctx, core::Mechanism::kMigration, 0);
    co_await w->rt.return_home(ctx, kRequester, 2);
  };
  EXPECT_EQ(frames_of(w, get_next), 2u);
  EXPECT_EQ(w.rt.stats().migrations, 12u);
  EXPECT_EQ(w.rt.stats().migrations_local, 2u);
  EXPECT_EQ(cn.total_exited(), 2);
}

/// A small machine with a coherent memory of two hardware sharer pointers
/// per line. Its blocks of three lines, all homed on processor 7, are
/// allocated up front; an operation takes a fresh one per run, so that its
/// second run, the one frames_of counts, meets the cache state its first
/// met.
struct CoherentWorld : World {
  static constexpr ProcId kHome = 7;
  static constexpr unsigned kBlocks = 32;
  std::vector<shmem::Addr> blocks;
  std::size_t taken = 0;

  CoherentWorld() : World(8, on_mesh(core::Mechanism::kSharedMemory, 2)) {
    for (unsigned i = 0; i < kBlocks; ++i) {
      blocks.push_back(mem->alloc(kHome, 3 * shmem::kLineBytes));
    }
  }
  shmem::Addr fresh() { return blocks.at(taken++); }
};

TEST(FramePool, CoherentHitsMakeNoFrameAndAMissOnlyAcquires) {
  CoherentWorld cw;
  CoherentWorld* const c = &cw;
  const shmem::Addr hot = c->fresh();
  // The first run misses on `hot`; the second, the one counted, hits.
  const auto hits = [c, hot](World*) -> Task<> {
    co_await c->mem->read(0, hot, 3 * shmem::kLineBytes);
    co_await c->mem->write(0, hot, 3 * shmem::kLineBytes);
  };
  const auto miss = [c](World*) -> Task<> {
    co_await c->mem->read(0, c->fresh(), 4);
  };
  EXPECT_EQ(frames_of(cw, hits), 0u);
  // The miss runs as steps of a pooled record (1 when it started an
  // acquire() coroutine).
  EXPECT_EQ(frames_of(cw, miss), 0u);
}

TEST(FramePool, CoherentRangeServesEveryMissFromOneFrame) {
  CoherentWorld cw;
  CoherentWorld* const c = &cw;
  shmem::MemStats before;
  shmem::MemStats after;
  // Processor 0 owns a fresh block's middle line, then writes all three
  // lines: two misses around a hit.
  const auto write_around_a_hit = [c, &before, &after](World*) -> Task<> {
    const shmem::Addr a = c->fresh();
    co_await c->mem->write(0, a + shmem::kLineBytes, 4);
    before = c->mem->stats();
    co_await c->mem->write(0, a, 3 * shmem::kLineBytes);
    after = c->mem->stats();
  };
  // One record serves both misses of the range, and the setup access's
  // record serves it (1 when each access started an acquire() frame).
  EXPECT_EQ(frames_of(cw, write_around_a_hit), 0u);
  EXPECT_EQ(after.write_misses - before.write_misses, 2u);
  EXPECT_EQ(after.write_hits - before.write_hits, 1u);
  EXPECT_EQ(after.read_misses + after.read_hits, 0u);
}

TEST(FramePool, DirectoryServiceMakesNoFrameOfItsOwn) {
  CoherentWorld cw;
  CoherentWorld* const c = &cw;
  std::uint64_t traps = 0;
  // Processor 1 holds a fresh line Modified; processor 0 reads it, so the
  // home fetches it from 1.
  const auto fetch = [c](World*) -> Task<> {
    const shmem::Addr a = c->fresh();
    co_await c->mem->write(1, a, 4);
    const std::uint64_t fetches = c->mem->stats().fetches;
    co_await c->mem->read(0, a, 4);
    EXPECT_EQ(c->mem->stats().fetches, fetches + 1);
  };
  // Three sharers, one past the two pointers; processor 0's write
  // invalidates them after a trap.
  const auto invalidate_overflow = [c, &traps](World*) -> Task<> {
    const shmem::Addr a = c->fresh();
    for (ProcId p = 1; p <= 3; ++p) co_await c->mem->read(p, a, 4);
    const shmem::MemStats before = c->mem->stats();
    co_await c->mem->write(0, a, 4);
    EXPECT_EQ(c->mem->stats().invalidations, before.invalidations + 3);
    traps = c->mem->stats().limitless_traps - before.limitless_traps;
  };
  // Two sharers fill the pointers; processor 3's read traps to add itself.
  const auto share_overflow = [c, &traps](World*) -> Task<> {
    const shmem::Addr a = c->fresh();
    for (ProcId p = 1; p <= 2; ++p) co_await c->mem->read(p, a, 4);
    const std::uint64_t before = c->mem->stats().limitless_traps;
    co_await c->mem->read(3, a, 4);
    traps = c->mem->stats().limitless_traps - before;
  };
  // The transaction and its invalidation legs are pooled records (1 for
  // acquire()'s frame each, and 3 more for the legs' coroutines, when they
  // were coroutines).
  EXPECT_EQ(frames_of(cw, fetch), 0u);
  EXPECT_EQ(frames_of(cw, invalidate_overflow), 0u);
  EXPECT_EQ(traps, 1u);
  EXPECT_EQ(frames_of(cw, share_overflow), 0u);
  EXPECT_EQ(traps, 1u);
}

TEST(FramePool, WarmCoherentPoolsServePrefetchesMergesAndWritebacks) {
  // Once the first run of each operation has warmed the memory's record
  // pools, its second run, on a fresh thread, makes no global allocation.
  CoherentWorld cw;
  CoherentWorld* const c = &cw;
  shmem::MemStats before;
  shmem::MemStats after;
  // A prefetch of a fresh block that nothing awaits.
  const auto prefetch = [c, &before, &after](World*) -> Task<> {
    before = c->mem->stats();
    c->mem->prefetch(0, c->fresh(), 3 * shmem::kLineBytes);
    after = c->mem->stats();
    co_return;
  };
  EXPECT_EQ(frames_of(cw, prefetch), 0u);
  EXPECT_EQ(after.prefetches - before.prefetches, 3u);
  // A prefetch, then a read of the same block that merges with it.
  const auto merge = [c, &before, &after](World*) -> Task<> {
    const shmem::Addr a = c->fresh();
    before = c->mem->stats();
    c->mem->prefetch(0, a, 3 * shmem::kLineBytes);
    co_await c->mem->read(0, a, 3 * shmem::kLineBytes);
    after = c->mem->stats();
  };
  EXPECT_EQ(frames_of(cw, merge), 0u);
  EXPECT_GE(after.mshr_merges - before.mshr_merges, 1u);
  // Three lines 32 KB apart share a set of processor 0's two-way 64 KB
  // cache, so once two are in, each write evicts a dirty one.
  constexpr std::uint64_t kSetSpan = 32 * 1024;
  const shmem::Addr far = c->mem->alloc(CoherentWorld::kHome,
                                        2 * kSetSpan + shmem::kLineBytes);
  const auto writeback = [c, far, &before, &after](World*) -> Task<> {
    before = c->mem->stats();
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        co_await c->mem->write(0, far + k * kSetSpan, 4);
      }
    }
    after = c->mem->stats();
  };
  EXPECT_EQ(frames_of(cw, writeback), 0u);
  EXPECT_EQ(after.writebacks - before.writebacks, 6u);
}

/// The benchmark's B-tree (10,000 keys, fanout <= 100, 48 node processors)
/// on the benchmark's machine, with a coherent memory for shared memory.
struct TreeWorld : World {
  apps::DistributedBTree bt;

  TreeWorld()
      : World(48 + 16, on_mesh(core::Mechanism::kSharedMemory)),
        bt(rt, mem.get(), {}) {
    std::vector<std::uint64_t> keys(10'000);
    for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
    bt.bulk_load(keys);
  }
};

TEST(FramePool, BTreeOperationsMakeAPinnedNumberOfFrames) {
  TreeWorld tw;
  apps::DistributedBTree* bt = &tw.bt;
  // A requester past the node processors inserts a key that fits in its
  // leaf (the second run overwrites it), or looks one up.
  const auto insert = [bt](core::Mechanism mech) {
    return [bt, mech](World* w) -> Task<> {
      core::Ctx ctx{&w->rt, 48};
      (void)co_await bt->insert(ctx, mech, 3, 3);
    };
  };
  const auto cp_lookup = [bt](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, 48};
    EXPECT_TRUE(co_await bt->lookup(ctx, core::Mechanism::kMigration, 4));
  };
  const std::size_t nodes = bt->num_nodes();
  // A frame freed during the operation serves the next one of its size
  // class, so these count the most frames of each class alive at once. The
  // node locks take no frame of their own (8 and 9 when they did), nor
  // does a message-passing visit around its body (7 and 3 when it did),
  // nor a remote call around its body (5 when it did). Under shared memory
  // the warm insert's accesses all hit and make no frame, but each frame
  // that awaits memory holds a 32-byte Access per co_await, and
  // SeqLock::begin_read moves up into the size class the access frames
  // used, so the count stays 7.
  EXPECT_EQ(frames_of(tw, insert(core::Mechanism::kRpc)), 3u);
  EXPECT_EQ(frames_of(tw, insert(core::Mechanism::kSharedMemory)), 7u);
  EXPECT_EQ(frames_of(tw, cp_lookup), 2u);
  EXPECT_EQ(bt->num_nodes(), nodes);  // nothing split
}

/// The coherence layer under the shared-memory B-tree's load: LimitLESS
/// directories and small caches, so that every kind of coherence work
/// (misses, invalidations, dirty writebacks, software traps, MSHR merges,
/// lock hand-offs) recurs in steady state.
struct SmWorld {
  static constexpr ProcId kHomes = 48;
  static constexpr unsigned kClients = 16;
  static constexpr unsigned kBlocks = 512;
  static constexpr unsigned kBlockBytes = 64;

  sim::Engine eng;
  sim::Machine machine;
  net::MeshNetwork mesh;
  shmem::CoherentMemory mem;
  shmem::SpinLock lock;
  shmem::SeqLock seq;
  std::vector<shmem::Addr> blocks;
  bool stop = false;
  long ops = 0;

  SmWorld()
      : machine(eng, kHomes + kClients),
        mesh(eng, kHomes + kClients),
        mem(machine, mesh,
            shmem::CacheParams{.size_bytes = 2048, .associativity = 2},
            shmem::ProtocolParams{.hw_sharer_pointers = 5}),
        lock(mem, 0),
        seq(mem, 1) {
    for (unsigned i = 0; i < kBlocks; ++i) {
      blocks.push_back(mem.alloc(i % kHomes, kBlockBytes));
    }
  }
};

Task<> sm_client(SmWorld* w, ProcId p) {
  sim::Rng rng(p);
  for (unsigned i = 1; !w->stop; ++i) {
    const shmem::Addr a = w->blocks[rng.below(w->blocks.size())];
    if (i % 8 == 0) {
      co_await w->lock.acquire(p);
      co_await w->seq.begin_write(p);
      co_await w->mem.write(p, a, SmWorld::kBlockBytes);
      co_await w->seq.end_write(p);
      co_await w->lock.release(p);
    } else if (rng.below(4) == 0) {
      co_await w->mem.write(p, a, SmWorld::kBlockBytes);
    } else if (rng.below(8) == 0) {
      // One block at a time, so the prefetches in flight stay bounded.
      w->mem.prefetch(p, a, SmWorld::kBlockBytes);
      co_await w->mem.read(p, a, SmWorld::kBlockBytes);
    } else if (rng.below(8) == 0) {
      const std::uint64_t v = co_await w->seq.begin_read(p);
      co_await w->mem.read(p, a, SmWorld::kBlockBytes);
      (void)co_await w->seq.validate(p, v);
    } else {
      co_await w->mem.read(p, a, SmWorld::kBlockBytes);
    }
    ++w->ops;
  }
}

TEST(FramePool, WarmCoherentMemoryMakesNoGlobalAllocation) {
  SmWorld w;
  for (unsigned i = 0; i < SmWorld::kClients; ++i) {
    sim::detach(sm_client(&w, SmWorld::kHomes + i));
  }
  // The pool keeps as many frames of a kind as were ever alive at once.
  // Concurrent invalidation legs peak when rounds on widely shared lines
  // (the locks') coincide with rounds on data lines, which is rare: in
  // this shape the last new peak comes at 3.3 M cycles.
  constexpr Cycles kSmWarmup = 4'000'000;
  std::vector<shmem::MemStats> edges;
  edges.reserve(2);
  const Measured m =
      measure(w, kSmWarmup, [&] { edges.push_back(w.mem.stats()); });
  EXPECT_GT(m.ops, 100);
  EXPECT_EQ(m.allocs, 0u) << "over " << m.ops << " ops";
  ASSERT_EQ(edges.size(), 2u);
  const shmem::MemStats& a = edges[0];
  const shmem::MemStats& b = edges[1];
  // Every kind of coherence work happened inside the window.
  EXPECT_GT(b.misses(), a.misses());
  EXPECT_GT(b.invalidations, a.invalidations);
  EXPECT_GT(b.writebacks, a.writebacks);
  EXPECT_GT(b.limitless_traps, a.limitless_traps);
  EXPECT_GT(b.mshr_merges, a.mshr_merges);
  EXPECT_FALSE(w.lock.held());
}

// ---------------------------------------------------------------------------
// Host structures built per object: the FIFO mutex, the B-tree's nodes and
// the shared-memory directory.

struct HandOff {
  std::array<ProcId, 8> order{};
  std::size_t done = 0;
};

Task<> contend(sim::AsyncMutex* m, sim::Machine* mach, ProcId p,
               HandOff* h) {
  co_await m->lock();
  h->order[h->done++] = p;
  co_await mach->compute(p, 10);
  m->unlock();
}

TEST(FramePool, AsyncMutexAllocatesNothingConstructedOrHandedOff) {
  constexpr ProcId kLockers = 8;
  sim::Engine eng;
  sim::Machine mach(eng, kLockers);
  // Eight lockers of one fresh mutex; the first holds it, seven queue.
  auto run_round = [&](HandOff& h) {
    sim::AsyncMutex m;
    for (ProcId p = 0; p < kLockers; ++p) {
      sim::detach(contend(&m, &mach, p, &h));
    }
    const std::size_t queued = m.waiters();
    eng.run();
    return queued;
  };
  HandOff warm;
  (void)run_round(warm);  // the frame pool and the event queue warm up

  HandOff h;
  const std::size_t allocs0 = allocs();
  const std::size_t queued = run_round(h);
  const std::size_t made = allocs() - allocs0;
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(queued, kLockers - 1);
  ASSERT_EQ(h.done, kLockers);
  for (ProcId p = 0; p < kLockers; ++p) EXPECT_EQ(h.order[p], p);  // FIFO
}

TEST(FramePool, BTreeBulkLoadMakesAtMostFiveAllocationsPerNode) {
  // The benchmark's tree: 10,000 keys, fanout <= 100, 48 node processors.
  World w(48 + 16);
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
  const std::size_t allocs0 = allocs();
  apps::DistributedBTree bt(w.rt, nullptr, apps::DistributedBTree::Params{});
  bt.bulk_load(keys);
  const std::size_t made = allocs() - allocs0;
  EXPECT_EQ(bt.num_keys(), keys.size());
  EXPECT_EQ(bt.height(), 3u);
  EXPECT_LE(made, 5 * bt.num_nodes())
      << made << " allocations for " << bt.num_nodes() << " nodes";
}

TEST(FramePool, BTreeBulkLoadMakesAtMostThreeAllocationsPerNode) {
  // Per node: its two entry arrays, and a share of the node table's blocks.
  World w(48 + 16);
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
  const std::size_t allocs0 = allocs();
  apps::DistributedBTree bt(w.rt, nullptr, apps::DistributedBTree::Params{});
  bt.bulk_load(keys);
  const std::size_t made = allocs() - allocs0;
  EXPECT_EQ(bt.num_keys(), keys.size());
  EXPECT_LE(made, 3 * bt.num_nodes())
      << made << " allocations for " << bt.num_nodes() << " nodes";
}

Task<> rpc_insert(World* w, apps::DistributedBTree* bt, ProcId home,
                  std::uint64_t key, bool* fresh) {
  core::Ctx ctx{&w->rt, home};
  *fresh = co_await bt->insert(ctx, core::Mechanism::kRpc, key, key);
}

TEST(FramePool, WarmRpcInsertWithoutSplitAllocatesNothing) {
  // The benchmark's tree; requesters on processors 48 and up, so that every
  // node visit is a remote call.
  World w(48 + 16);
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i;
  apps::DistributedBTree bt(w.rt, nullptr, apps::DistributedBTree::Params{});
  bt.bulk_load(keys);
  const std::size_t nodes = bt.num_nodes();
  bool fresh = false;
  sim::detach(rpc_insert(&w, &bt, 48, 1, &fresh));  // warms the pools
  w.eng.run();
  ASSERT_TRUE(fresh);
  const std::size_t allocs0 = allocs();
  sim::detach(rpc_insert(&w, &bt, 48, 3, &fresh));
  w.eng.run();
  const std::size_t made = allocs() - allocs0;
  EXPECT_TRUE(fresh);
  EXPECT_EQ(bt.num_nodes(), nodes);  // neither insert split
  EXPECT_EQ(made, 0u);
  EXPECT_GT(w.rt.stats().remote_calls, 0u);
}

/// Global allocations made by the second of two identical benchmark-shaped
/// workload calls: the tree is built, run for the paper's window, checked
/// and freed in each.
std::size_t warm_btree_call_allocs(core::Scheme scheme) {
  apps::BTreeConfig cfg;
  cfg.scheme = scheme;
  cfg.requesters = 16;
  cfg.nkeys = 10'000;
  cfg.node_procs = 48;
  cfg.window = apps::Window{30'000, 250'000};
  cfg.seed = 4097;
  const apps::RunStats first = apps::run_btree(cfg);
  EXPECT_TRUE(first.invariants_ok);
  const std::size_t allocs0 = allocs();
  const apps::RunStats warm = apps::run_btree(cfg);
  const std::size_t made = allocs() - allocs0;
  EXPECT_TRUE(warm.invariants_ok);
  EXPECT_EQ(warm.ops, first.ops);
  return made;
}

TEST(FramePool, WarmRpcReplicatedBTreeCallMakesAtMost500Allocations) {
  const std::size_t made =
      warm_btree_call_allocs(core::Scheme{core::Mechanism::kRpc, false, true});
  EXPECT_LE(made, 500u) << made << " allocations";
}

TEST(FramePool, WarmSharedMemoryBTreeCallMakesAtMost1100Allocations) {
  const std::size_t made = warm_btree_call_allocs(
      core::Scheme{core::Mechanism::kSharedMemory, false, false});
  EXPECT_LE(made, 1100u) << made << " allocations";
}

TEST(FramePool, BTreeSizedDirectoryMakesAtMost250Allocations) {
  // The shared-memory B-tree's machine, 48 node homes and 16 requesters,
  // and about 20,000 lines in its blocks: per node, a header line and 101
  // entries (1,632 bytes), a SeqLock (8) and a SpinLock (4).
  constexpr ProcId kHomes = 48;
  constexpr ProcId kProcs = kHomes + 16;
  constexpr unsigned kNodes = 192;
  sim::Engine eng;
  sim::Machine machine(eng, kProcs);
  net::MeshNetwork mesh(eng, kProcs);
  const std::size_t allocs0 = allocs();
  shmem::CoherentMemory mem(machine, mesh);
  shmem::Addr last = 0;
  for (unsigned i = 0; i < kNodes; ++i) {
    const ProcId home = i % kHomes;
    (void)mem.alloc(home, 16 + 16 * 101);
    (void)mem.alloc(home, 8);
    last = mem.alloc(home, 4);
  }
  const std::size_t made = allocs() - allocs0;
  EXPECT_LE(made, 250u) << made << " allocations for " << kNodes * 104
                        << " lines";
  EXPECT_EQ(mem.dir_snapshot(shmem::line_of(last)).owner, sim::kNoProc);
}

/// The B-tree-sized directory's machine, after allocating the blocks of
/// its 192 nodes; the last node's spin-lock word is `*last`.
struct BTreeSizedMemory {
  static constexpr ProcId kHomes = 48;
  static constexpr unsigned kNodes = 192;

  BTreeSizedMemory() {
    for (unsigned i = 0; i < kNodes; ++i) {
      const ProcId home = i % kHomes;
      (void)mem.alloc(home, 16 + 16 * 101);
      (void)mem.alloc(home, 8);
      last = mem.alloc(home, 4);
    }
  }

  sim::Engine eng;
  sim::Machine machine{eng, kHomes + 16};
  net::MeshNetwork mesh{eng, kHomes + 16};
  shmem::CoherentMemory mem{machine, mesh};
  shmem::Addr last = 0;
};

TEST(FramePool, AllocatingBTreeSizedBlocksMakesNoDirectoryChunk) {
  const BTreeSizedMemory m;
  EXPECT_EQ(m.mem.dir_chunks(), 0u);
}

TEST(FramePool, SnapshotOfAnUntouchedLineIsCleanAndAllocatesNothing) {
  const BTreeSizedMemory m;
  const std::size_t allocs0 = allocs();
  const auto snap = m.mem.dir_snapshot(shmem::line_of(m.last));
  const auto first = m.mem.dir_snapshot(shmem::line_of(0));
  EXPECT_EQ(allocs() - allocs0, 0u);
  for (const auto& s : {snap, first}) {
    EXPECT_FALSE(s.modified);
    EXPECT_EQ(s.owner, sim::kNoProc);
    EXPECT_TRUE(s.sharers.none());
    EXPECT_FALSE(s.busy);
  }
  EXPECT_EQ(m.mem.dir_chunks(), 0u);
}

TEST(FramePool, WarmEmptyWindowSmBTreeCallMakesAtMost550Allocations) {
  // perfbench's set-up call on btree_sm: the benchmark's shape with an
  // empty window, so each requester starts one op and the engine drains.
  // It made 651 allocations while alloc() made every directory chunk and
  // the nodes sat in a std::deque, 505 since.
  apps::BTreeConfig cfg;
  cfg.scheme = core::Scheme{core::Mechanism::kSharedMemory, false, false};
  cfg.requesters = 16;
  cfg.nkeys = 10'000;
  cfg.node_procs = 48;
  cfg.window = apps::Window{0, 0};
  cfg.seed = 4097;
  const apps::RunStats first = apps::run_btree(cfg);
  ASSERT_TRUE(first.invariants_ok);
  const std::size_t allocs0 = allocs();
  const apps::RunStats warm = apps::run_btree(cfg);
  const std::size_t made = allocs() - allocs0;
  EXPECT_TRUE(warm.invariants_ok);
  EXPECT_EQ(warm.events_executed, first.events_executed);
  EXPECT_LE(made, 550u) << made << " allocations";
}

// ---------------------------------------------------------------------------
// Blocks and size classes.

/// Does not suspend; records the address of the awaiting coroutine's frame.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

Task<> small_frame(void** at) { co_await FrameAddress{at}; }

/// 4 KB of locals live across its suspension point, so its frame is larger
/// than the biggest size class.
Task<> large_frame(void** at, int* sum) {
  std::array<int, 1024> big{};
  static_assert(sizeof(big) > sim::FramePool::kMaxPooled);
  std::iota(big.begin(), big.end(), 0);
  co_await FrameAddress{at};
  *sum = std::accumulate(big.begin(), big.end(), 0);
}

/// Runs `t` to completion, then destroys it, freeing its frame.
void run_and_destroy(Task<> t) {
  t.start();
  ASSERT_TRUE(t.done());
}

TEST(FramePool, DestroyedFrameGoesToTheNextFrameOfItsClass) {
  void* first = nullptr;
  void* large = nullptr;
  void* next = nullptr;
  int sum = 0;
  run_and_destroy(small_frame(&first));
  run_and_destroy(large_frame(&large, &sum));  // another class
  run_and_destroy(small_frame(&next));
  ASSERT_NE(first, nullptr);
  EXPECT_NE(large, first);
  EXPECT_EQ(next, first);
}

TEST(FramePool, FrameLargerThanTheBiggestClassBypassesThePool) {
  for (int round = 0; round < 2; ++round) {
    void* at = nullptr;
    int sum = 0;
    const std::size_t allocs0 = allocs();
    const std::size_t frees0 = frees();
    run_and_destroy(large_frame(&at, &sum));
    EXPECT_EQ(sum, 1023 * 1024 / 2);
    // One global allocation and one free per run: never parked in a list.
    EXPECT_EQ(allocs() - allocs0, 1u);
    EXPECT_EQ(frees() - frees0, 1u);
  }
}

// ---------------------------------------------------------------------------
// Threads.

TEST(FramePool, FrameDestroyedOnAnotherThreadJoinsThatThreadsList) {
  void* made = nullptr;
  Task<> t = small_frame(&made);
  t.start();
  void* reused = nullptr;
  std::thread other([&t, &reused] {
    { const Task<> mine = std::move(t); }  // destroyed here, not where made
    run_and_destroy(small_frame(&reused));
  });
  other.join();
  EXPECT_EQ(reused, made);
}

/// Frees its task's frame while its thread exits. Constructed before the
/// pool's exit hook, it is destroyed after it (thread-exit destructors run
/// in reverse order of construction), when the thread's lists are gone.
struct LateOwner {
  Task<> task;
  std::size_t* frees_seen = nullptr;

  LateOwner() = default;
  LateOwner(const LateOwner&) = delete;
  LateOwner& operator=(const LateOwner&) = delete;
  ~LateOwner() {
    const std::size_t frees0 = frees();
    task = Task<>{};
    if (frees_seen != nullptr) *frees_seen = frees() - frees0;
  }
};

TEST(FramePool, FrameFreedAfterItsThreadsListsAreReleasedBypassesThem) {
  std::size_t frees_seen = 0;
  std::thread other([&frees_seen] {
    thread_local LateOwner late;
    late.frees_seen = &frees_seen;
    void* at = nullptr;
    late.task = small_frame(&at);       // still alive at thread exit
    run_and_destroy(small_frame(&at));  // first free: arms the exit hook
  });
  other.join();
  EXPECT_EQ(frees_seen, 1u);  // straight back to the global allocator
}

// ---------------------------------------------------------------------------
// AddressSanitizer still sees frame lifetimes.

/// Parks at its first suspension point; reports where a local in its frame
/// lives.
Task<> parked(int** local_at) {
  int local = 7;
  *local_at = &local;
  co_await std::suspend_always{};
  ++local;
}

TEST(FramePoolDeathTest, TouchingADestroyedFrameIsReported) {
  if (CM_SIM_ASAN == 0) {
    GTEST_SKIP() << "free frames are poisoned only in AddressSanitizer builds";
  }
  int* local = nullptr;
  {
    Task<> t = parked(&local);
    t.start();
  }  // destroyed while suspended: its block is parked and poisoned
  EXPECT_DEATH(std::printf("%d\n", *local), "use-after-poison");
}

}  // namespace
}  // namespace cm
