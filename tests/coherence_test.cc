#include "shmem/coherent_memory.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/constant_net.h"
#include "shmem/addr.h"
#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace cm::shmem {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

struct World {
  sim::Engine eng;
  sim::Machine machine;
  net::ConstantNetwork net;
  CoherentMemory mem;

  explicit World(ProcId nprocs, CacheParams cp = {}, ProtocolParams pp = {})
      : machine(eng, nprocs), net(eng), mem(machine, net, cp, pp) {}
};

Task<> do_read(CoherentMemory* mem, ProcId p, Addr a, unsigned bytes,
               Cycles* done_at, sim::Engine* eng) {
  co_await mem->read(p, a, bytes);
  if (done_at) *done_at = eng->now();
}

Task<> do_write(CoherentMemory* mem, ProcId p, Addr a, unsigned bytes,
                Cycles* done_at, sim::Engine* eng) {
  co_await mem->write(p, a, bytes);
  if (done_at) *done_at = eng->now();
}

TEST(Coherence, FirstReadMissesThenHits) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().read_misses, 1u);
  EXPECT_EQ(w.mem.stats().read_hits, 0u);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().read_misses, 1u);
  EXPECT_EQ(w.mem.stats().read_hits, 1u);
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kShared);
}

TEST(Coherence, ReadMissTakesTime) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  Cycles t = 0;
  sim::detach(do_read(&w.mem, 0, a, 16, &t, &w.eng));
  w.eng.run();
  EXPECT_GT(t, 0u);  // request + controller + data reply
}

TEST(Coherence, TwoReadersShare) {
  World w(4);
  const Addr a = w.mem.alloc(2, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  sim::detach(do_read(&w.mem, 1, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kShared);
  EXPECT_EQ(w.mem.cache(1).lookup(line_of(a)), LineState::kShared);
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_FALSE(d.modified);
  EXPECT_TRUE(d.sharers.test(0));
  EXPECT_TRUE(d.sharers.test(1));
}

TEST(Coherence, WriteInvalidatesSharers) {
  World w(4);
  const Addr a = w.mem.alloc(2, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  sim::detach(do_read(&w.mem, 1, a, 16, nullptr, &w.eng));
  w.eng.run();
  sim::detach(do_write(&w.mem, 3, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kInvalid);
  EXPECT_EQ(w.mem.cache(1).lookup(line_of(a)), LineState::kInvalid);
  EXPECT_EQ(w.mem.cache(3).lookup(line_of(a)), LineState::kModified);
  EXPECT_EQ(w.mem.stats().invalidations, 2u);
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_TRUE(d.modified);
  EXPECT_EQ(d.owner, 3u);
}

TEST(Coherence, ReadOfDirtyLineFetchesFromOwner) {
  World w(4);
  const Addr a = w.mem.alloc(2, 16);
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kModified);
  sim::detach(do_read(&w.mem, 1, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().fetches, 1u);
  // Owner downgraded, both share now.
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kShared);
  EXPECT_EQ(w.mem.cache(1).lookup(line_of(a)), LineState::kShared);
  EXPECT_FALSE(w.mem.dir_snapshot(line_of(a)).modified);
}

TEST(Coherence, MigratoryWritesPassOwnership) {
  World w(4);
  const Addr a = w.mem.alloc(3, 16);
  for (ProcId p = 0; p < 4; ++p) {
    sim::detach(do_write(&w.mem, p, a, 16, nullptr, &w.eng));
    w.eng.run();
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(a)), LineState::kModified);
    for (ProcId q = 0; q < 4; ++q) {
      if (q != p) {
        EXPECT_EQ(w.mem.cache(q).lookup(line_of(a)), LineState::kInvalid);
      }
    }
  }
  // 3 ownership transfers from a dirty owner.
  EXPECT_EQ(w.mem.stats().fetches, 3u);
}

TEST(Coherence, UpgradeCountsAndKeepsLine) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().upgrades, 1u);
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kModified);
}

TEST(Coherence, WriteHitWhenAlreadyModified) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  const auto words_before = w.net.stats().words;
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().write_hits, 1u);
  EXPECT_EQ(w.net.stats().words, words_before);  // no traffic for a hit
}

TEST(Coherence, LocallyHomedMissProducesNoNetworkTraffic) {
  World w(4);
  const Addr a = w.mem.alloc(0, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().read_misses, 1u);
  EXPECT_EQ(w.net.stats().messages, 0u);
}

TEST(Coherence, MultiLineAccessTouchesEachLine) {
  World w(4);
  const Addr a = w.mem.alloc(1, 160);  // 10 lines
  sim::detach(do_read(&w.mem, 0, a, 160, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().read_misses, 10u);
  for (unsigned i = 0; i < 10; ++i) {
    EXPECT_EQ(w.mem.cache(0).lookup(line_of(a) + i), LineState::kShared);
  }
}

TEST(Coherence, AllTrafficIsClassifiedCoherence) {
  World w(4);
  const Addr a = w.mem.alloc(2, 16);
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_GT(w.net.stats().coherence_messages, 0u);
  EXPECT_EQ(w.net.stats().runtime_messages, 0u);
}

TEST(Coherence, DirtyEvictionWritesBack) {
  // Tiny cache: 2 lines, direct-mapped.
  World w(2, CacheParams{.size_bytes = 32, .associativity = 1});
  // Two addresses on home 1 that collide in proc 0's cache (same set):
  // with 2 sets, lines two apart map to the same set.
  const Addr a = w.mem.alloc(1, 16);
  (void)w.mem.alloc(1, 16);  // spacer line
  const Addr b = w.mem.alloc(1, 16);
  ASSERT_EQ(line_of(a) % 2, line_of(b) % 2);  // same set by construction
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  sim::detach(do_write(&w.mem, 0, b, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().writebacks, 1u);
  EXPECT_EQ(w.mem.stats().evictions, 1u);
  // Directory forgot the evicted line's owner.
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_FALSE(d.modified);
}

TEST(Coherence, RemoteDirtyReadSlowerThanCleanRead) {
  World w1(4);
  const Addr a1 = w1.mem.alloc(1, 16);
  Cycles clean = 0;
  sim::detach(do_read(&w1.mem, 0, a1, 16, &clean, &w1.eng));
  w1.eng.run();

  World w2(4);
  const Addr a2 = w2.mem.alloc(1, 16);
  sim::detach(do_write(&w2.mem, 2, a2, 16, nullptr, &w2.eng));
  w2.eng.run();
  const Cycles start = w2.eng.now();
  Cycles dirty_done = 0;
  sim::detach(do_read(&w2.mem, 0, a2, 16, &dirty_done, &w2.eng));
  w2.eng.run();
  EXPECT_GT(dirty_done - start, clean);  // 4-hop vs 2-hop
}

// ---------------------------------------------------------------------------
// Property test: single-writer/multiple-reader invariant under a random
// workload, checked at quiescent points.
// ---------------------------------------------------------------------------

struct RandomOp {
  ProcId p;
  Addr a;
  bool write;
};

Task<> run_ops(CoherentMemory* mem, std::vector<RandomOp> ops) {
  for (const auto& op : ops) {
    if (op.write) {
      co_await mem->write(op.p, op.a, 16);
    } else {
      co_await mem->read(op.p, op.a, 16);
    }
  }
}

class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoherenceProperty, SwmrInvariantHolds) {
  constexpr ProcId kProcs = 8;
  constexpr int kAddrs = 6;
  World w(kProcs);
  sim::Rng rng(GetParam());

  std::vector<Addr> addrs;
  for (int i = 0; i < kAddrs; ++i) {
    addrs.push_back(w.mem.alloc(static_cast<ProcId>(rng.below(kProcs)), 16));
  }

  // One op stream per processor, all running concurrently.
  for (ProcId p = 0; p < kProcs; ++p) {
    std::vector<RandomOp> ops;
    for (int i = 0; i < 50; ++i) {
      ops.push_back(RandomOp{p, addrs[rng.below(kAddrs)], rng.chance(0.4)});
    }
    sim::detach(run_ops(&w.mem, std::move(ops)));
  }
  w.eng.run();

  for (const Addr a : addrs) {
    const Line l = line_of(a);
    int modified = 0, shared = 0;
    for (ProcId p = 0; p < kProcs; ++p) {
      const LineState st = w.mem.cache(p).lookup(l);
      if (st == LineState::kModified) ++modified;
      if (st == LineState::kShared) ++shared;
    }
    EXPECT_LE(modified, 1) << "two modified copies of line " << l;
    if (modified == 1) {
      EXPECT_EQ(shared, 0) << "dirty line " << l << " also shared";
    }
    const auto d = w.mem.dir_snapshot(l);
    EXPECT_FALSE(d.busy) << "transaction leaked on line " << l;
    if (d.modified) {
      EXPECT_EQ(w.mem.cache(d.owner).lookup(l), LineState::kModified);
    }
  }
  // Sanity: the workload did something.
  EXPECT_GT(w.mem.stats().misses(), 0u);
  EXPECT_GT(w.net.stats().coherence_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u, 1234u));

// ---------------------------------------------------------------------------
// Prefetching and MSHR request merging (§2.5: "prefetching will lower the
// relative cost of performing data migration")
// ---------------------------------------------------------------------------

Task<> prefetch_then_read(CoherentMemory* mem, ProcId p, Addr a,
                          unsigned bytes, sim::Machine* m, Cycles gap,
                          Cycles* read_latency) {
  mem->prefetch(p, a, bytes);
  if (gap > 0) co_await m->sleep(gap);
  const Cycles start = m->engine().now();
  co_await mem->read(p, a, bytes);
  *read_latency = m->engine().now() - start;
}

TEST(Prefetch, HidesMissLatency) {
  // Demand-read 10 remote lines serially vs. after a prefetch that has had
  // time to complete: the prefetched read costs nothing.
  Cycles cold = 0, warm = 0;
  {
    World w(4);
    const Addr a = w.mem.alloc(2, 160);
    sim::detach(prefetch_then_read(&w.mem, 0, a, 160, &w.machine, 0, &cold));
    w.eng.run();
  }
  {
    World w(4);
    const Addr a = w.mem.alloc(2, 160);
    sim::detach(
        prefetch_then_read(&w.mem, 0, a, 160, &w.machine, 5000, &warm));
    w.eng.run();
    EXPECT_EQ(w.mem.stats().prefetches, 10u);
  }
  EXPECT_EQ(warm, 0u);  // everything hit
  EXPECT_GT(cold, 0u);
}

TEST(Prefetch, OverlapsInFlightMissesViaMshr) {
  // Even with no gap, prefetching issues all line transactions in parallel;
  // the demand read merges with them instead of serialising the misses.
  Cycles serial = 0, overlapped = 0;
  {
    World w(4);
    const Addr a = w.mem.alloc(2, 160);
    Cycles dummy = 0;
    sim::detach(prefetch_then_read(&w.mem, 0, a, 0, &w.machine, 0, &dummy));
    const Cycles start = w.eng.now();
    sim::detach(do_read(&w.mem, 0, a, 160, &serial, &w.eng));
    w.eng.run();
    serial -= start;
  }
  {
    World w(4);
    const Addr a = w.mem.alloc(2, 160);
    sim::detach(
        prefetch_then_read(&w.mem, 0, a, 160, &w.machine, 0, &overlapped));
    w.eng.run();
    EXPECT_GT(w.mem.stats().mshr_merges, 0u);
  }
  EXPECT_LT(overlapped, serial);
}

TEST(Prefetch, DoesNotDuplicateTransactions) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  w.mem.prefetch(0, a, 16);
  w.mem.prefetch(0, a, 16);  // second prefetch merges/no-ops
  w.eng.run();
  EXPECT_EQ(w.mem.stats().prefetches, 1u);
  EXPECT_EQ(w.mem.stats().read_misses, 1u);
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kShared);
}

TEST(Prefetch, PrefetchOfPresentLineIsFree) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  const auto msgs = w.net.stats().messages;
  w.mem.prefetch(0, a, 16);
  w.eng.run();
  EXPECT_EQ(w.net.stats().messages, msgs);
}

TEST(Mshr, ConcurrentReadersOfOneLineShareOneTransaction) {
  World w(4);
  const Addr a = w.mem.alloc(3, 16);
  // Two threads on the SAME processor read the same line concurrently.
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().mshr_merges, 1u);
  // One request + one data reply only.
  EXPECT_EQ(w.net.stats().messages, 2u);
}

TEST(Mshr, WriteAfterInFlightReadUpgrades) {
  World w(4);
  const Addr a = w.mem.alloc(3, 16);
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  sim::detach(do_write(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kModified);
  EXPECT_GE(w.mem.stats().mshr_merges, 1u);
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_TRUE(d.modified);
  EXPECT_EQ(d.owner, 0u);
}

// ---------------------------------------------------------------------------
// Directory FIFOs, MSHR merge lists and the dense directory table
// ---------------------------------------------------------------------------

/// Waits `delay` cycles, writes or reads one line, then records `id`.
Task<> access_then_log(World* w, Cycles delay, ProcId p, Addr a, bool write,
                       int id, std::vector<int>* order) {
  if (delay > 0) co_await w->machine.sleep(delay);
  if (write) {
    co_await w->mem.write(p, a, 16);
  } else {
    co_await w->mem.read(p, a, 16);
  }
  order->push_back(id);
}

TEST(Directory, QueuedWriteMissesAreGrantedInArrivalOrder) {
  World w(4);
  const Addr a = w.mem.alloc(0, 16);
  std::vector<int> order;
  // Requests reach the home one cycle apart, 3 then 1 then 2, all while
  // the first is still being served.
  sim::detach(access_then_log(&w, 0, 3, a, true, 3, &order));
  sim::detach(access_then_log(&w, 1, 1, a, true, 1, &order));
  sim::detach(access_then_log(&w, 2, 2, a, true, 2, &order));
  w.eng.run_until(14);
  EXPECT_TRUE(w.mem.dir_snapshot(line_of(a)).busy);
  w.eng.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(w.mem.stats().write_misses, 3u);
  EXPECT_EQ(w.mem.stats().fetches, 2u);  // ownership passed twice
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_FALSE(d.busy);
  EXPECT_TRUE(d.modified);
  EXPECT_EQ(d.owner, 2u);
  EXPECT_EQ(w.mem.cache(2).lookup(line_of(a)), LineState::kModified);
}

TEST(Mshr, MergedAccessesResumeInMergeOrder) {
  World w(4);
  const Addr a = w.mem.alloc(3, 16);
  std::vector<int> order;
  w.mem.prefetch(0, a, 16);  // the in-flight transaction
  // Three accesses from processor 0 merge into it, in this order.
  sim::detach(access_then_log(&w, 0, 0, a, false, 1, &order));
  sim::detach(access_then_log(&w, 0, 0, a, false, 2, &order));
  sim::detach(access_then_log(&w, 0, 0, a, false, 3, &order));
  w.eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(w.mem.stats().mshr_merges, 3u);
  EXPECT_EQ(w.net.stats().messages, 2u);  // one request, one data reply
}

TEST(Directory, AllocGrowsTheTableUnderQueuedTransactions) {
  World w(8);
  const Addr a = w.mem.alloc(0, 16);
  std::vector<int> order;
  for (ProcId p = 1; p < 8; ++p) {
    sim::detach(access_then_log(&w, p, p, a, p % 2 == 1, static_cast<int>(p),
                                &order));
  }
  w.eng.run_until(20);
  ASSERT_TRUE(w.mem.dir_snapshot(line_of(a)).busy);
  // A B-tree split allocating on the same home mid-transaction: the table
  // grows by far more than any initial capacity.
  const Addr big = w.mem.alloc(0, 1u << 20);
  sim::detach(access_then_log(&w, 0, 4, big + (1u << 20) - 16, true, 0,
                              &order));
  w.eng.run();
  EXPECT_EQ(order.size(), 8u);
  // Processor 7's write arrived last, so it owns the line.
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_FALSE(d.busy);
  EXPECT_TRUE(d.modified);
  EXPECT_EQ(d.owner, 7u);
  EXPECT_EQ(d.sharers.count(), 1u);
  for (ProcId p = 0; p < 8; ++p) {
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(a)),
              p == 7 ? LineState::kModified : LineState::kInvalid)
        << p;
  }
  const auto e = w.mem.dir_snapshot(line_of(big + (1u << 20) - 16));
  EXPECT_TRUE(e.modified);
  EXPECT_EQ(e.owner, 4u);
}

TEST(Directory, TheFirstMissInAChunkMakesItsRecords) {
  World w(4);
  constexpr std::uint64_t kChunkBytes = CoherentMemory::kDirChunk * kLineBytes;
  // Two chunks' worth of lines on home 1, one line on home 2.
  const Addr a = w.mem.alloc(1, 2 * kChunkBytes);
  const Addr b = w.mem.alloc(2, 16);
  EXPECT_EQ(w.mem.dir_chunks(), 0u);
  // The first miss in a's first chunk makes it.
  sim::detach(do_read(&w.mem, 0, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.dir_chunks(), 1u);
  // Another line of that chunk, its last, makes none.
  sim::detach(do_write(&w.mem, 3, a + kChunkBytes - 16, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.dir_chunks(), 1u);
  // The next line is the first of a's second chunk; b's is on another home.
  sim::detach(do_read(&w.mem, 0, a + kChunkBytes, 16, nullptr, &w.eng));
  sim::detach(do_read(&w.mem, 0, b, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.dir_chunks(), 3u);
  // The records keep their state beside each other.
  EXPECT_TRUE(w.mem.dir_snapshot(line_of(a)).sharers.test(0));
  const auto last = w.mem.dir_snapshot(line_of(a + kChunkBytes - 16));
  EXPECT_TRUE(last.modified);
  EXPECT_EQ(last.owner, 3u);
  // A line the run never touched, in a chunk it made, reads as clean.
  const auto untouched = w.mem.dir_snapshot(line_of(a + 16));
  EXPECT_FALSE(untouched.modified);
  EXPECT_EQ(untouched.owner, sim::kNoProc);
  EXPECT_TRUE(untouched.sharers.none());
  EXPECT_FALSE(untouched.busy);
}

// ---------------------------------------------------------------------------
// Configuration and address errors are typed, in every build type
// ---------------------------------------------------------------------------

TEST(CoherenceConfig, RejectsMoreProcessorsThanTheSharerVector) {
  sim::Engine eng;
  sim::Machine machine(eng, kMaxProcs + 1);
  net::ConstantNetwork net(eng);
  EXPECT_THROW(CoherentMemory(machine, net), std::invalid_argument);
  sim::Machine largest(eng, kMaxProcs);
  EXPECT_NO_THROW(CoherentMemory(largest, net));
}

TEST(CoherenceConfig, RejectsBadCacheGeometry) {
  sim::Engine eng;
  sim::Machine machine(eng, 4);
  net::ConstantNetwork net(eng);
  EXPECT_THROW(CoherentMemory(machine, net,
                              CacheParams{.size_bytes = 4096,
                                          .associativity = 0}),
               std::invalid_argument);
}

TEST(CoherenceConfig, AllocRejectsAHomeOutsideTheMachine) {
  World w(4);
  EXPECT_THROW((void)w.mem.alloc(4, 16), std::invalid_argument);
  EXPECT_THROW((void)w.mem.alloc(sim::kNoProc, 16), std::invalid_argument);
}

TEST(CoherenceConfig, AllocRejectsAnExhaustedHomeRegion) {
  World w(4);
  const std::uint64_t region = std::uint64_t{1} << kHomeShift;
  EXPECT_THROW((void)w.mem.alloc(1, region + 1), std::invalid_argument);
  EXPECT_THROW((void)w.mem.alloc(1, ~std::uint64_t{0}), std::invalid_argument);
  // The region is intact after a rejected request.
  const Addr a = w.mem.alloc(1, 16);
  EXPECT_EQ(home_of_addr(a), 1u);
  EXPECT_EQ(a & (region - 1), 0u);
}

Task<> read_catching(CoherentMemory* mem, ProcId p, Addr a, bool* threw,
                     unsigned bytes = 16) {
  try {
    co_await mem->read(p, a, bytes);
  } catch (const std::out_of_range&) {
    *threw = true;
  }
}

Task<> write_catching(CoherentMemory* mem, ProcId p, Addr a, bool* threw) {
  try {
    co_await mem->write(p, a, 16);
  } catch (const std::out_of_range&) {
    *threw = true;
  }
}

TEST(CoherenceConfig, RejectsAProcessorOutsideTheMachine) {
  World w(2);
  const Addr a = w.mem.alloc(1, 16);
  for (const ProcId bad :
       {ProcId{2}, ProcId{7}, ProcId{100'000}, sim::kNoProc}) {
    bool read_threw = false;
    bool write_threw = false;
    sim::detach(read_catching(&w.mem, bad, a, &read_threw));
    sim::detach(write_catching(&w.mem, bad, a, &write_threw));
    w.eng.run();
    EXPECT_TRUE(read_threw) << bad;
    EXPECT_TRUE(write_threw) << bad;
    EXPECT_THROW(w.mem.prefetch(bad, a, 16), std::out_of_range) << bad;
    EXPECT_THROW(w.mem.prefetch(bad, a, 0), std::out_of_range) << bad;
  }
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.mem.stats().hits() + w.mem.stats().misses(), 0u);
  EXPECT_EQ(w.mem.stats().prefetches, 0u);
  EXPECT_FALSE(w.mem.dir_snapshot(line_of(a)).busy);
}

TEST(CoherenceConfig, AccessToUnallocatedMemoryThrows) {
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  const Addr past = a + 16;        // beyond home 1's allocations
  const Addr nowhere = a + (Addr{7} << kHomeShift);  // home 8: no such proc
  for (const Addr bad : {past, nowhere}) {
    bool threw = false;
    sim::detach(read_catching(&w.mem, 0, bad, &threw));
    w.eng.run();
    EXPECT_TRUE(threw);
    EXPECT_THROW(w.mem.prefetch(0, bad, 16), std::out_of_range);
  }
  EXPECT_EQ(w.net.stats().messages, 0u);
  EXPECT_EQ(w.mem.stats().misses(), 0u);
  EXPECT_EQ(w.mem.stats().prefetches, 0u);
  EXPECT_FALSE(w.mem.dir_snapshot(line_of(past)).busy);
}

TEST(CoherenceConfig, RangePastAllocatedMemoryThrowsAfterServingItsLines) {
  // A two-line read whose second line was never allocated: the first line
  // is served (one miss, one transaction), then the walk throws.
  World w(4);
  const Addr a = w.mem.alloc(1, 16);
  bool threw = false;
  sim::detach(read_catching(&w.mem, 0, a, &threw, 32));
  w.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(w.mem.stats().read_misses, 1u);
  EXPECT_EQ(w.mem.cache(0).lookup(line_of(a)), LineState::kShared);
  EXPECT_FALSE(w.mem.dir_snapshot(line_of(a)).busy);
}

// ---------------------------------------------------------------------------
// A directory sized to the machine: sharer bitmaps of ceil(P / 64) words
// ---------------------------------------------------------------------------

Task<> read_each(CoherentMemory* mem, std::vector<ProcId> readers, Addr a) {
  for (const ProcId p : readers) co_await mem->read(p, a, 16);
}

class WideDirectory : public ::testing::TestWithParam<ProcId> {};

TEST_P(WideDirectory, WriteInvalidatesReadersInEverySharerWord) {
  const ProcId nprocs = GetParam();
  World w(nprocs);
  std::vector<ProcId> readers;
  for (const ProcId p : {0u, 63u, 64u, 65u, 255u}) {
    if (p < nprocs) readers.push_back(p);
  }
  const auto n = static_cast<std::uint64_t>(readers.size());

  // Both lines live on processor 2, which neither reads nor writes them, so
  // every protocol message crosses the network.
  constexpr ProcId kHome = 2;

  // A writer that holds no copy invalidates every reader: a request, an
  // INV and an ACK per reader, and the data.
  const ProcId writer = 1;
  const Addr a = w.mem.alloc(kHome, 16);
  sim::detach(read_each(&w.mem, readers, a));
  w.eng.run();
  const auto shared = w.mem.dir_snapshot(line_of(a));
  EXPECT_EQ(shared.sharers.count(), readers.size());
  for (const ProcId p : readers) EXPECT_TRUE(shared.sharers.test(p)) << p;
  std::uint64_t sent = w.net.stats().coherence_messages;
  sim::detach(do_write(&w.mem, writer, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().invalidations, n);
  EXPECT_EQ(w.net.stats().coherence_messages - sent, 2 * n + 2);
  const auto d = w.mem.dir_snapshot(line_of(a));
  EXPECT_TRUE(d.modified);
  EXPECT_EQ(d.owner, writer);
  EXPECT_EQ(d.sharers, SharerSet{}.set(writer));
  for (const ProcId p : readers) {
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(a)), LineState::kInvalid) << p;
  }

  // The highest reader upgrades: every other reader is invalidated, and
  // the grant is a header.
  const ProcId upgrader = readers.back();
  const Addr b = w.mem.alloc(kHome, 16);
  sim::detach(read_each(&w.mem, readers, b));
  w.eng.run();
  sent = w.net.stats().coherence_messages;
  sim::detach(do_write(&w.mem, upgrader, b, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().invalidations, n + n - 1);
  EXPECT_EQ(w.mem.stats().upgrades, 1u);
  EXPECT_EQ(w.net.stats().coherence_messages - sent, 2 * n);
  const auto e = w.mem.dir_snapshot(line_of(b));
  EXPECT_TRUE(e.modified);
  EXPECT_EQ(e.owner, upgrader);
  EXPECT_EQ(e.sharers, SharerSet{}.set(upgrader));
  for (const ProcId p : readers) {
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(b)),
              p == upgrader ? LineState::kModified : LineState::kInvalid)
        << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, WideDirectory,
                         ::testing::Values(ProcId{64}, ProcId{65},
                                           ProcId{kMaxProcs}));

// ---------------------------------------------------------------------------
// LimitLESS limited directories [CKA91]
// ---------------------------------------------------------------------------

Task<> read_all(CoherentMemory* mem, Addr a, ProcId nprocs) {
  for (ProcId p = 0; p < nprocs; ++p) co_await mem->read(p, a, 16);
}

TEST(LimitLess, FullMapNeverTraps) {
  World w(8);
  const Addr a = w.mem.alloc(0, 16);
  sim::detach(read_all(&w.mem, a, 8));
  w.eng.run();
  EXPECT_EQ(w.mem.stats().limitless_traps, 0u);
}

TEST(LimitLess, OverflowingSharersTrapsToSoftware) {
  ProtocolParams pp;
  pp.hw_sharer_pointers = 2;
  World w(8, {}, pp);
  const Addr a = w.mem.alloc(0, 16);
  sim::detach(read_all(&w.mem, a, 8));
  w.eng.run();
  // Sharers 3..8 each overflow the 2-pointer hardware set.
  EXPECT_EQ(w.mem.stats().limitless_traps, 6u);
  // The trap handler runs on the home CPU.
  EXPECT_GE(w.machine.proc(0).busy_cycles(), 6u * pp.limitless_trap);
  // Coherence is unaffected: everyone shares the line.
  for (ProcId p = 0; p < 8; ++p) {
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(a)), LineState::kShared);
  }
}

TEST(LimitLess, InvalidatingOverflowedSetTrapsToo) {
  ProtocolParams pp;
  pp.hw_sharer_pointers = 2;
  World w(8, {}, pp);
  const Addr a = w.mem.alloc(0, 16);
  sim::detach(read_all(&w.mem, a, 8));
  w.eng.run();
  const auto traps = w.mem.stats().limitless_traps;
  sim::detach(do_write(&w.mem, 3, a, 16, nullptr, &w.eng));
  w.eng.run();
  EXPECT_GT(w.mem.stats().limitless_traps, traps);
  // SWMR still holds after the trap-assisted invalidation.
  for (ProcId p = 0; p < 8; ++p) {
    EXPECT_EQ(w.mem.cache(p).lookup(line_of(a)),
              p == 3 ? LineState::kModified : LineState::kInvalid);
  }
}

TEST(LimitLess, TrapsSlowWidelySharedReads) {
  auto total_time = [](unsigned ptrs) {
    ProtocolParams pp;
    pp.hw_sharer_pointers = ptrs;
    World w(16, {}, pp);
    const Addr a = w.mem.alloc(0, 16);
    sim::detach(read_all(&w.mem, a, 16));
    w.eng.run();
    return w.eng.now();
  };
  EXPECT_GT(total_time(2), total_time(0));
}

// Determinism: identical seeds must give byte-identical statistics.
TEST(Coherence, DeterministicForFixedSeed) {
  auto run = [](std::uint64_t seed) {
    World w(8);
    sim::Rng rng(seed);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4; ++i) addrs.push_back(w.mem.alloc(rng.below(8), 16));
    for (ProcId p = 0; p < 8; ++p) {
      std::vector<RandomOp> ops;
      for (int i = 0; i < 30; ++i) {
        ops.push_back(RandomOp{p, addrs[rng.below(4)], rng.chance(0.5)});
      }
      sim::detach(run_ops(&w.mem, std::move(ops)));
    }
    w.eng.run();
    return std::tuple{w.eng.now(), w.net.stats().words, w.mem.stats().misses()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and seeds matter
}

}  // namespace
}  // namespace cm::shmem
