#include <gtest/gtest.h>

#include "net/constant_net.h"
#include "net/mesh_net.h"
#include "sim/engine.h"

namespace cm::net {
namespace {

using sim::Cycles;
using sim::Engine;
using sim::ProcId;

TEST(ConstantNetwork, LatencyIsLaunchPlusPerWord) {
  Engine eng;
  ConstantNetwork net(eng, {.launch = 9, .per_word = 1});
  EXPECT_EQ(net.latency(0, 5, 8), 17u);  // the paper's Table-5 transit value
  EXPECT_EQ(net.latency(0, 5, 0), 9u);
  EXPECT_EQ(net.latency(3, 3, 100), 0u);  // loopback
}

TEST(ConstantNetwork, DeliversAtLatency) {
  Engine eng;
  ConstantNetwork net(eng, {.launch = 9, .per_word = 1});
  Cycles delivered = 0;
  net.send(0, 1, 8, Traffic::kRuntime, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_EQ(delivered, 17u);
}

TEST(ConstantNetwork, CountsMessagesAndWordsByKind) {
  Engine eng;
  ConstantNetwork net(eng);
  net.send(0, 1, 10, Traffic::kRuntime, [] {});
  net.send(1, 2, 6, Traffic::kCoherence, [] {});
  net.send(2, 0, 4, Traffic::kCoherence, [] {});
  eng.run();
  const NetStats& s = net.stats();
  EXPECT_EQ(s.messages, 3u);
  EXPECT_EQ(s.words, 20u);
  EXPECT_EQ(s.runtime_messages, 1u);
  EXPECT_EQ(s.runtime_words, 10u);
  EXPECT_EQ(s.coherence_messages, 2u);
  EXPECT_EQ(s.coherence_words, 10u);
}

TEST(ConstantNetwork, LoopbackIsFreeAndUncounted) {
  Engine eng;
  ConstantNetwork net(eng);
  Cycles delivered = 99;
  net.send(4, 4, 8, Traffic::kRuntime, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().words, 0u);
}

TEST(MeshNetwork, HopsAreManhattanDistance) {
  Engine eng;
  MeshNetwork net(eng, 64, {.width = 8});
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 7), 7u);    // same row
  EXPECT_EQ(net.hops(0, 56), 7u);   // same column
  EXPECT_EQ(net.hops(0, 63), 14u);  // opposite corner
  EXPECT_EQ(net.hops(9, 18), 2u);   // (1,1) -> (2,2)
  EXPECT_EQ(net.hops(18, 9), 2u);   // symmetric
}

TEST(MeshNetwork, ZeroLoadLatencyScalesWithHopsAndWords) {
  Engine eng;
  MeshConfig cfg{.width = 4, .launch = 4, .per_hop = 2, .per_word = 1};
  MeshNetwork net(eng, 16, cfg);
  // 0 -> 3: 3 hops. latency = 4 + 3*2 + 5 = 15.
  EXPECT_EQ(net.latency(0, 3, 5), 15u);
  // One more hop adds per_hop.
  EXPECT_EQ(net.latency(0, 7, 5), 17u);
  // One more word adds per_word.
  EXPECT_EQ(net.latency(0, 3, 6), 16u);
}

TEST(MeshNetwork, LatencyQueryIsPureUnderLoad) {
  Engine eng;
  MeshConfig cfg{.width = 4, .launch = 4, .per_hop = 2, .per_word = 1};
  MeshNetwork net(eng, 16, cfg);
  const Cycles zero_load = net.latency(0, 3, 8);
  // Saturate the 0 -> 3 row, then re-query: latency() is a zero-load
  // closed form that must neither change under load nor mutate link state
  // (it used to const_cast its way into the routing walk).
  for (int i = 0; i < 4; ++i) net.send(0, 3, 8, Traffic::kRuntime, [] {});
  eng.run();
  const std::uint64_t link_words = net.max_link_words();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(net.latency(0, 3, 8), zero_load);
  EXPECT_EQ(net.max_link_words(), link_words);
}

TEST(MeshNetwork, DeliveryMatchesLatencyUnderZeroLoad) {
  Engine eng;
  MeshNetwork net(eng, 16, {.width = 4});
  const Cycles expect = net.latency(1, 14, 6);
  Cycles got = 0;
  net.send(1, 14, 6, Traffic::kRuntime, [&] { got = eng.now(); });
  eng.run();
  EXPECT_EQ(got, expect);
}

TEST(MeshNetwork, ContentionDelaysSecondMessageOnSharedLink) {
  Engine eng;
  MeshConfig cfg{.width = 4, .launch = 4, .per_hop = 2, .per_word = 1};
  MeshNetwork net(eng, 16, cfg);
  Cycles first = 0, second = 0;
  // Both messages cross link (0 -> 1); the second must queue behind the
  // first's occupancy.
  net.send(0, 1, 10, Traffic::kRuntime, [&] { first = eng.now(); });
  net.send(0, 1, 10, Traffic::kRuntime, [&] { second = eng.now(); });
  eng.run();
  EXPECT_GT(second, first);
}

TEST(MeshNetwork, DisjointPathsDoNotInterfere) {
  Engine eng;
  MeshConfig cfg{.width = 4};
  MeshNetwork net(eng, 16, cfg);
  Cycles a = 0, b = 0;
  net.send(0, 1, 10, Traffic::kRuntime, [&] { a = eng.now(); });
  net.send(8, 9, 10, Traffic::kRuntime, [&] { b = eng.now(); });
  eng.run();
  EXPECT_EQ(a, b);  // identical geometry, no shared links
}

TEST(MeshNetwork, TracksPerLinkWords) {
  Engine eng;
  MeshNetwork net(eng, 16, {.width = 4});
  net.send(0, 1, 10, Traffic::kRuntime, [] {});
  net.send(0, 1, 10, Traffic::kRuntime, [] {});
  eng.run();
  EXPECT_EQ(net.max_link_words(), 20u);
}

TEST(MeshNetwork, NonSquareMachineRoutes) {
  Engine eng;
  MeshNetwork net(eng, 24, {.width = 8});  // 8x3 mesh
  EXPECT_EQ(net.height(), 3u);
  EXPECT_EQ(net.hops(0, 23), 9u);  // (0,0)->(7,2)
  Cycles got = 0;
  net.send(0, 23, 4, Traffic::kCoherence, [&] { got = eng.now(); });
  eng.run();
  EXPECT_GT(got, 0u);
}

}  // namespace
}  // namespace cm::net
