// Allocation regression test for the coroutine frame pool
// (sim/frame_pool.h). A binary of its own, because it replaces the global
// operator new with one that counts: once warm, a simulation whose frames
// all come from the pool makes no global allocation at all.
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

#include "apps/counting_network.h"
#include "core/mechanism.h"
#include "core/object.h"
#include "core/runtime.h"
#include "net/mesh_net.h"
#include "sim/engine.h"
#include "sim/machine.h"
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

/// Runs the warm-up, then one measured window; then stops the clients and
/// drains the engine, so that every frame is freed.
Measured measure(World& w) {
  w.eng.run_until(kWarmup);
  const std::size_t allocs0 = allocs();
  const long ops0 = w.ops;
  w.eng.run_until(kWarmup + kMeasured);
  const Measured out{allocs() - allocs0, w.ops - ops0};
  w.stop = true;
  w.eng.run();
  return out;
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
