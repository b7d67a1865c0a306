#include "shmem/sync.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "sim/task.h"

namespace cm::shmem {
namespace {

using sim::Cycles;
using sim::ProcId;
using sim::Task;

struct World : apps::Stack {
  explicit World(ProcId nprocs)
      : Stack(nprocs, apps::bare_config(core::Mechanism::kSharedMemory)) {}
};

// A critical section that detects overlap: `inside` must never exceed 1.
struct CritState {
  int inside = 0;
  int max_inside = 0;
  int entries = 0;
  std::vector<ProcId> order;
};

Task<> contender(World* w, SpinLock* lock, CritState* cs, ProcId p,
                 int rounds, Cycles hold) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock->acquire(p);
    cs->inside++;
    cs->max_inside = std::max(cs->max_inside, cs->inside);
    cs->entries++;
    cs->order.push_back(p);
    co_await w->machine.compute(p, hold);
    cs->inside--;
    co_await lock->release(p);
  }
}

TEST(SpinLock, UncontendedAcquireRelease) {
  World w(4);
  SpinLock lock(*w.mem, 0);
  CritState cs;
  sim::detach(contender(&w, &lock, &cs, 1, 1, 10));
  w.eng.run();
  EXPECT_EQ(cs.entries, 1);
  EXPECT_FALSE(lock.held());
}

TEST(SpinLock, MutualExclusionUnderContention) {
  World w(8);
  SpinLock lock(*w.mem, 0);
  CritState cs;
  for (ProcId p = 0; p < 8; ++p) {
    sim::detach(contender(&w, &lock, &cs, p, 5, 20));
  }
  w.eng.run();
  EXPECT_EQ(cs.entries, 40);
  EXPECT_EQ(cs.max_inside, 1) << "two threads inside the critical section";
  EXPECT_EQ(cs.inside, 0);
  EXPECT_FALSE(lock.held());
}

TEST(SpinLock, EveryContenderEventuallyEnters) {
  World w(8);
  SpinLock lock(*w.mem, 3);
  CritState cs;
  for (ProcId p = 0; p < 8; ++p) {
    sim::detach(contender(&w, &lock, &cs, p, 1, 5));
  }
  w.eng.run();
  std::vector<int> per_proc(8, 0);
  for (ProcId p : cs.order) per_proc[p]++;
  for (int c : per_proc) EXPECT_EQ(c, 1);
}

TEST(SpinLock, ContentionGeneratesCoherenceTraffic) {
  // The paper's key bandwidth observation: a contended lock handoff costs
  // O(spinners) protocol messages.
  World w1(2);
  SpinLock l1(*w1.mem, 0);
  CritState c1;
  sim::detach(contender(&w1, &l1, &c1, 1, 4, 20));
  w1.eng.run();
  const auto solo_words = w1.net.stats().words;

  World w2(8);
  SpinLock l2(*w2.mem, 0);
  CritState c2;
  for (ProcId p = 0; p < 8; ++p)
    sim::detach(contender(&w2, &l2, &c2, p, 4, 20));
  w2.eng.run();
  const auto contended_words = w2.net.stats().words;
  EXPECT_GT(contended_words, 4 * solo_words);
}

Task<> seq_reader(World* w, SeqLock* sl, Addr payload, ProcId p, int rounds,
                  int* consistent, int* retries) {
  for (int i = 0; i < rounds; ++i) {
    for (;;) {
      const auto v = co_await sl->begin_read(p);
      co_await w->mem->read(p, payload, 32);
      if (co_await sl->validate(p, v)) break;
      ++*retries;
    }
    ++*consistent;
  }
}

Task<> seq_writer(World* w, SpinLock* guard, SeqLock* sl, Addr payload,
                  ProcId p, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await guard->acquire(p);
    co_await sl->begin_write(p);
    co_await w->mem->write(p, payload, 32);
    co_await w->machine.compute(p, 30);
    co_await sl->end_write(p);
    co_await guard->release(p);
    co_await w->machine.compute(p, 100);  // let readers through
  }
}

TEST(SeqLock, ReadersCompleteAlongsideWriters) {
  World w(6);
  SpinLock guard(*w.mem, 0);
  SeqLock sl(*w.mem, 0);
  const Addr payload = w.mem->alloc(0, 32);
  int consistent = 0, retries = 0;
  for (ProcId p = 1; p < 5; ++p) {
    sim::detach(seq_reader(&w, &sl, payload, p, 10, &consistent, &retries));
  }
  sim::detach(seq_writer(&w, &guard, &sl, payload, 5, 8));
  w.eng.run();
  EXPECT_EQ(consistent, 40);
  EXPECT_EQ(sl.version() % 2, 0u);
  EXPECT_EQ(sl.version(), 16u);  // 8 writes, two bumps each
}

TEST(SeqLock, PureReadersHitInCache) {
  // Read-shared data: after the first miss, repeated seqlock reads are
  // local — the "automatic replication" benefit of shared memory.
  World w(4);
  SeqLock sl(*w.mem, 0);
  const Addr payload = w.mem->alloc(0, 32);
  int consistent = 0, retries = 0;
  sim::detach(seq_reader(&w, &sl, payload, 2, 20, &consistent, &retries));
  w.eng.run();
  EXPECT_EQ(consistent, 20);
  EXPECT_EQ(retries, 0);
  // 3 lines (version + 2 payload) missed once each; everything else hit.
  EXPECT_EQ(w.mem->stats().read_misses, 3u);
  EXPECT_GT(w.mem->stats().read_hits, 50u);
}

TEST(SeqLock, VersionStartsEven) {
  World w(2);
  SeqLock sl(*w.mem, 0);
  EXPECT_EQ(sl.version(), 0u);
}

// ---------------------------------------------------------------------------
// Misuse throws std::logic_error to the awaiter, in every build type, before
// any state change or simulated step
// ---------------------------------------------------------------------------

Task<> catching_logic_error(Task<> t, bool* threw) {
  try {
    co_await std::move(t);
  } catch (const std::logic_error&) {
    *threw = true;
  }
}

/// Shared-memory traffic and engine work so far: a rejected call adds none.
struct Footprint {
  std::uint64_t accesses;
  std::uint64_t messages;
  std::size_t events;

  explicit Footprint(const World& w)
      : accesses(w.mem->stats().hits() + w.mem->stats().misses()),
        messages(w.net.stats().messages),
        events(w.eng.events_executed()) {}
  bool operator==(const Footprint&) const = default;
};

TEST(SpinLock, ReleaseByANonHolderThrowsToTheAwaiter) {
  World w(4);
  SpinLock lock(*w.mem, 0);
  sim::detach(lock.acquire(1));
  w.eng.run();
  ASSERT_TRUE(lock.held());
  const Footprint before(w);
  bool threw = false;
  sim::detach(catching_logic_error(lock.release(2), &threw));
  w.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(lock.held());  // no second holder
  EXPECT_EQ(lock.holder(), 1u);
  EXPECT_EQ(Footprint(w), before);
  // The holder still releases it, and then nobody may.
  sim::detach(lock.release(1));
  w.eng.run();
  EXPECT_FALSE(lock.held());
  threw = false;
  sim::detach(catching_logic_error(lock.release(1), &threw));
  w.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_FALSE(lock.held());
}

TEST(SeqLock, BeginWriteWhileAWriteIsOpenThrowsToTheAwaiter) {
  World w(4);
  SeqLock sl(*w.mem, 0);
  sim::detach(sl.begin_write(1));
  w.eng.run();
  ASSERT_EQ(sl.version(), 1u);
  const Footprint before(w);
  bool threw = false;
  sim::detach(catching_logic_error(sl.begin_write(2), &threw));
  w.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(sl.version(), 1u);  // still odd: readers keep waiting
  EXPECT_EQ(Footprint(w), before);
}

TEST(SeqLock, EndWriteWithoutAnOpenWriteThrowsToTheAwaiter) {
  World w(4);
  SeqLock sl(*w.mem, 0);
  const Footprint before(w);
  bool threw = false;
  sim::detach(catching_logic_error(sl.end_write(1), &threw));
  w.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(sl.version(), 0u);  // still even: readers are not parked
  EXPECT_EQ(Footprint(w), before);
}

}  // namespace
}  // namespace cm::shmem
