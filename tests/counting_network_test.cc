#include "apps/counting_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "apps/workload.h"
#include "sim/task.h"

namespace cm::apps {
namespace {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

// ---------------------------------------------------------------------------
// Wiring construction
// ---------------------------------------------------------------------------

TEST(BitonicWiring, Width8MatchesPaperGeometry) {
  const BitonicWiring w = BitonicWiring::build(8);
  // "an eight-by-eight counting network ... essentially a six-stage
  // pipeline; each stage has four balancers" -> 24 balancers.
  EXPECT_EQ(w.balancers.size(), 24u);
  EXPECT_EQ(w.depth, 6u);
  EXPECT_EQ(w.width, 8u);
}

class WiringWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(WiringWidths, SizeAndDepthFollowTheBitonicFormulae) {
  const unsigned width = GetParam();
  const BitonicWiring w = BitonicWiring::build(width);
  unsigned lg = 0;
  while ((1u << lg) < width) ++lg;
  // depth = lg(lg+1)/2, balancers = (width/2) * depth.
  EXPECT_EQ(w.depth, lg * (lg + 1) / 2);
  EXPECT_EQ(w.balancers.size(), (width / 2) * w.depth);
  EXPECT_EQ(w.entry.size(), width);
}

TEST_P(WiringWidths, EveryBalancerOutputIsWired) {
  const BitonicWiring w = BitonicWiring::build(GetParam());
  unsigned outputs_seen = 0;
  for (const auto& b : w.balancers) {
    for (const Target& t : b.out) {
      if (t.is_output) {
        ++outputs_seen;
        EXPECT_LT(t.index, w.width);
      } else {
        EXPECT_LT(t.index, w.balancers.size());
      }
    }
  }
  EXPECT_EQ(outputs_seen, w.width);
}

TEST_P(WiringWidths, StagesOnlyIncreaseAlongEdges) {
  const BitonicWiring w = BitonicWiring::build(GetParam());
  for (const auto& b : w.balancers) {
    for (const Target& t : b.out) {
      if (!t.is_output) {
        EXPECT_LT(b.stage, w.balancers[t.index].stage);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, WiringWidths,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(BitonicWiring, RejectsAWidthThatIsNotAPowerOfTwoAtLeastTwo) {
  for (const unsigned width : {0u, 1u, 3u, 6u, 12u, 0x80000001u}) {
    EXPECT_THROW((void)BitonicWiring::build(width), std::invalid_argument)
        << width;
  }
}

// ---------------------------------------------------------------------------
// Counting semantics under every mechanism
// ---------------------------------------------------------------------------

/// A constant-latency machine with a full-map coherent memory, so that one
/// network serves every mechanism.
struct World : Stack {
  CountingNetwork cn;

  World(unsigned width, unsigned requesters)
      : Stack(static_cast<ProcId>(3 * width + requesters),
              bare_config(Mechanism::kSharedMemory)),
        cn(rt, mem.get(), make_params(width)) {}

  static CountingNetwork::Params make_params(unsigned width) {
    CountingNetwork::Params p;
    p.width = width;
    p.first_balancer_proc = 0;
    return p;
  }
  [[nodiscard]] ProcId requester_proc(unsigned i) const {
    return static_cast<ProcId>(cn.num_balancers() + i);
  }
};

Task<> take_values(World* w, Mechanism mech, ProcId home, unsigned wire,
                   int count, std::vector<long>* out) {
  Ctx ctx{&w->rt, home};
  for (int i = 0; i < count; ++i) {
    const long v = co_await w->cn.get_next(ctx, mech, wire);
    co_await w->rt.return_home(ctx, home, 2);
    out->push_back(v);
  }
}

Task<> take_catching(World* w, Mechanism mech, unsigned wire, bool* threw) {
  Ctx ctx{&w->rt, w->requester_proc(0)};
  try {
    (void)co_await w->cn.get_next(ctx, mech, wire);
  } catch (const std::out_of_range&) {
    *threw = true;
  }
}

TEST(CountingNetwork, GetNextRejectsAnEntryWireOutsideTheNetwork) {
  World w(8, 1);
  for (const Mechanism mech :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kSharedMemory}) {
    for (const unsigned wire : {8u, 9u, ~0u}) {
      bool threw = false;
      sim::detach(take_catching(&w, mech, wire, &threw));
      w.eng.run();
      EXPECT_TRUE(threw) << wire;
    }
  }
  EXPECT_EQ(w.cn.total_exited(), 0);
  EXPECT_EQ(w.net.stats().messages, 0u);
}

Task<> take_from(CountingNetwork* cn, core::Runtime* rt, Mechanism mech,
                 ProcId home, long* value, bool* threw) {
  Ctx ctx{rt, home};
  try {
    *value = co_await cn->get_next(ctx, mech, 0);
  } catch (const std::invalid_argument&) {
    *threw = true;
  }
}

TEST(CountingNetwork, SharedMemoryNeedsACoherentMemory) {
  World w(8, 1);
  CountingNetwork bare(w.rt, /*mem=*/nullptr, World::make_params(8));
  long value = -1;
  bool threw = false;
  sim::detach(take_from(&bare, &w.rt, Mechanism::kSharedMemory,
                        w.requester_proc(0), &value, &threw));
  w.eng.run();
  EXPECT_TRUE(threw);
  // Rejected before any simulated step.
  EXPECT_EQ(w.eng.events_executed(), 0u);
  EXPECT_EQ(bare.total_exited(), 0);
  // Message passing needs no memory.
  threw = false;
  sim::detach(take_from(&bare, &w.rt, Mechanism::kMigration,
                        w.requester_proc(0), &value, &threw));
  w.eng.run();
  EXPECT_FALSE(threw);
  EXPECT_EQ(value, 0);
  EXPECT_EQ(bare.total_exited(), 1);
}

class Mechanisms : public ::testing::TestWithParam<Mechanism> {};

TEST_P(Mechanisms, SingleThreadCountsSequentially) {
  World w(8, 1);
  std::vector<long> vals;
  sim::detach(take_values(&w, GetParam(), w.requester_proc(0), 0, 16, &vals));
  w.eng.run();
  ASSERT_EQ(vals.size(), 16u);
  // One thread injecting on one wire still receives distinct values, and at
  // quiescence the network has the step property.
  std::set<long> uniq(vals.begin(), vals.end());
  EXPECT_EQ(uniq.size(), vals.size());
  EXPECT_TRUE(w.cn.has_step_property());
  EXPECT_EQ(w.cn.total_exited(), 16);
}

TEST_P(Mechanisms, ConcurrentThreadsGetExactlyOnceContiguousValues) {
  constexpr unsigned kThreads = 12;
  constexpr int kPer = 9;
  World w(8, kThreads);
  std::vector<std::vector<long>> vals(kThreads);
  for (unsigned i = 0; i < kThreads; ++i) {
    sim::detach(take_values(&w, GetParam(), w.requester_proc(i), i % 8, kPer,
                            &vals[i]));
  }
  w.eng.run();
  std::vector<long> all;
  for (const auto& v : vals) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kThreads * kPer);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<long>(i)) << "values must be the exact "
                                               "range 0..n-1 (exactly-once "
                                               "counting)";
  }
  EXPECT_TRUE(w.cn.has_step_property());
}

INSTANTIATE_TEST_SUITE_P(All, Mechanisms,
                         ::testing::Values(Mechanism::kRpc,
                                           Mechanism::kMigration,
                                           Mechanism::kSharedMemory,
                                           Mechanism::kObjectMigration,
                                           Mechanism::kThreadMigration));

TEST(CountingNetwork, MechanismDoesNotChangeSemantics) {
  // Paper §3.1: "the annotation affects only the performance of a program,
  // not its semantics". Same workload, same totals, different traffic.
  auto run = [](Mechanism mech) {
    World w(8, 4);
    std::vector<std::vector<long>> vals(4);
    for (unsigned i = 0; i < 4; ++i) {
      sim::detach(
          take_values(&w, mech, w.requester_proc(i), i % 8, 5, &vals[i]));
    }
    w.eng.run();
    std::vector<long> all;
    for (auto& v : vals) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all;
  };
  const auto rpc = run(Mechanism::kRpc);
  const auto mig = run(Mechanism::kMigration);
  const auto sm = run(Mechanism::kSharedMemory);
  const auto obj = run(Mechanism::kObjectMigration);
  const auto tm = run(Mechanism::kThreadMigration);
  EXPECT_EQ(rpc, mig);
  EXPECT_EQ(rpc, sm);
  EXPECT_EQ(rpc, obj);
  EXPECT_EQ(rpc, tm);
}

TEST(CountingNetwork, MigrationUsesFewerMessagesThanRpc) {
  auto messages = [](Mechanism mech) {
    World w(8, 4);
    std::vector<long> sink;
    for (unsigned i = 0; i < 4; ++i) {
      sim::detach(take_values(&w, mech, w.requester_proc(i), i % 8, 6, &sink));
    }
    w.eng.run();
    return w.net.stats().messages;
  };
  const auto rpc = messages(Mechanism::kRpc);
  const auto mig = messages(Mechanism::kMigration);
  // Per op: RPC = 2 per balancer/counter access; CM = 1 per hop + 1 return.
  EXPECT_LT(mig, rpc);
  EXPECT_LT(static_cast<double>(mig), 0.65 * static_cast<double>(rpc));
}

TEST(CountingNetwork, MigrationUsesLessBandwidthThanSharedMemory) {
  auto words = [](Mechanism mech) {
    World w(8, 8);
    std::vector<long> sink;
    for (unsigned i = 0; i < 8; ++i) {
      sim::detach(take_values(&w, mech, w.requester_proc(i), i % 8, 6, &sink));
    }
    w.eng.run();
    return w.net.stats().words;
  };
  EXPECT_LT(words(Mechanism::kMigration), words(Mechanism::kSharedMemory));
}

TEST(CountingNetwork, BalancersAreWriteShared) {
  // Under shared memory every balancer access modifies the toggle, so the
  // data-object hit rate stays low (the paper measured ~12%).
  World w(8, 8);
  std::vector<long> sink;
  for (unsigned i = 0; i < 8; ++i) {
    sim::detach(take_values(&w, Mechanism::kSharedMemory,
                            w.requester_proc(i), i % 8, 10, &sink));
  }
  w.eng.run();
  EXPECT_LT(w.mem->stats().hit_rate(), 0.6);
  EXPECT_GT(w.mem->stats().write_misses, 100u);
}

TEST(CountingNetwork, TokensPerBalancerAreBalanced) {
  // Each stage-0 balancer sees the tokens of its two input wires; a
  // balancer's two outputs then differ by at most one token.
  World w(8, 8);
  std::vector<long> sink;
  for (unsigned i = 0; i < 8; ++i) {
    sim::detach(take_values(&w, Mechanism::kRpc, w.requester_proc(i), i % 8,
                            8, &sink));
  }
  w.eng.run();
  EXPECT_EQ(w.cn.total_exited(), 64);
  EXPECT_TRUE(w.cn.has_step_property());
}

}  // namespace
}  // namespace cm::apps
