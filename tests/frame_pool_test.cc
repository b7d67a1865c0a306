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

/// A machine on the 2-D mesh with link contention and the software cost
/// model, as in the paper's workloads.
struct World {
  sim::Engine eng;
  sim::Machine machine;
  net::MeshNetwork mesh;
  core::ObjectSpace objects;
  core::Runtime rt;
  bool stop = false;
  long ops = 0;

  explicit World(ProcId nprocs)
      : machine(eng, nprocs),
        mesh(eng, nprocs),
        rt(machine, mesh, objects, core::CostModel::software()) {}
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

// ---------------------------------------------------------------------------
// Frames per runtime operation. A host thread's frame pool starts empty, so
// on a fresh thread each coroutine frame an operation makes is one global
// allocation. A run of the same operation on this thread first warms
// everything else (the event queue's records and lanes), so what the fresh
// thread allocates is the operation's frames.

/// The coroutine frames `op(&w)` makes, besides its own, when run to
/// completion.
template <class Op>
std::size_t frames_of(World& w, Op op) {
  sim::detach(op(&w));
  w.eng.run();
  std::size_t made = 0;
  std::thread fresh([&w, &op, &made] {
    Task<> t = op(&w);
    const std::size_t allocs0 = allocs();
    t.start();
    w.eng.run();
    made = allocs() - allocs0;
    EXPECT_TRUE(t.done());
  });
  fresh.join();
  return made;
}

Task<int> work_at_home(World* w, core::Ctx& callee) {
  co_await w->rt.compute(callee, 10);
  co_return 0;
}

TEST(FramePool, FrameFreeHopReturnAndLocalCallMakeNoFrameOfTheirOwn) {
  World w(4);
  const core::ObjectId there = w.objects.create(3);
  const core::ObjectId here = w.objects.create(2);
  const auto hop = [there](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, 0};
    co_await w->rt.migrate(ctx, there, 8);
    EXPECT_EQ(ctx.proc, 3u);
  };
  const auto group_hop = [there](World* w) -> Task<> {
    core::Ctx a{&w->rt, 0};
    core::Ctx b{&w->rt, 0};
    const std::vector<core::Ctx*> group{&a, &b};
    co_await w->rt.migrate_group(group, there, 8);
    EXPECT_EQ(b.proc, 3u);
  };
  const auto short_circuit_return = [](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, 3};
    co_await w->rt.return_home(ctx, 0, 2);
    EXPECT_EQ(ctx.proc, 0u);
  };
  const auto local_call = [here](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, 2};
    (void)co_await w->rt.call(ctx, here, core::CallOpts{},
                              [w](core::Ctx& c) { return work_at_home(w, c); });
  };
  const auto remote_call = [here](World* w) -> Task<> {
    core::Ctx ctx{&w->rt, 0};
    (void)co_await w->rt.call(ctx, here, core::CallOpts{},
                              [w](core::Ctx& c) { return work_at_home(w, c); });
  };
  EXPECT_EQ(frames_of(w, hop), 0u);
  // The group vector is the one allocation that is not a frame.
  EXPECT_EQ(frames_of(w, group_hop), 1u);
  EXPECT_EQ(frames_of(w, short_circuit_return), 0u);
  EXPECT_EQ(frames_of(w, local_call), 1u);   // the body's
  EXPECT_EQ(frames_of(w, remote_call), 2u);  // call_remote's and the body's
  EXPECT_EQ(w.rt.stats().migrations, 4u);
  EXPECT_EQ(w.rt.stats().local_calls, 2u);
  EXPECT_EQ(w.rt.stats().remote_calls, 2u);
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
  // Per node: its two entry arrays, and a share of the deque's blocks.
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
