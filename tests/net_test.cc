#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/constant_net.h"
#include "net/mesh_net.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace cm::net {
namespace {

using sim::Cycles;
using sim::Engine;
using sim::ProcId;

/// The ways a network delivers a message: `send` runs a closure, and
/// `send_resume` resumes a suspended coroutine or runs a Continuation.
enum class Delivery { kClosure, kResume, kContinuation };
constexpr Delivery kDeliveries[] = {Delivery::kClosure, Delivery::kResume,
                                    Delivery::kContinuation};
constexpr int kKinds = 3;

const char* name_of(Delivery how) {
  switch (how) {
    case Delivery::kClosure:
      return "closure";
    case Delivery::kResume:
      return "resume";
    case Delivery::kContinuation:
      return "continuation";
  }
  return "?";
}

/// A receiver coroutine: it suspends until a resume delivery of one message
/// wakes it, then runs `on_arrival`.
template <class F>
sim::Detached receive(Network& net, ProcId src, ProcId dst, unsigned words,
                      Traffic kind, F on_arrival) {
  co_await sim::suspend_to(
      [&net, src, dst, words, kind](std::coroutine_handle<> h) {
        net.send_resume(src, dst, words, kind, h);
      });
  on_arrival();
}

/// A frame-free receiver: a Continuation that runs `on_arrival` when a
/// resume delivery wakes it, then frees itself.
template <class F>
struct Arrival : sim::Continuation {
  F on_arrival;

  explicit Arrival(F f) : on_arrival(std::move(f)) { run = &arrive; }
  static void arrive(sim::Continuation* c) {
    auto* const self = static_cast<Arrival*>(c);
    self->on_arrival();
    delete self;
  }
};

/// Send one message by `how`; `on_arrival` runs when it is delivered.
template <class F>
void send_by(Delivery how, Network& net, ProcId src, ProcId dst,
             unsigned words, Traffic kind, F on_arrival) {
  switch (how) {
    case Delivery::kClosure:
      net.send(src, dst, words, kind, on_arrival);
      return;
    case Delivery::kResume:
      receive(net, src, dst, words, kind, on_arrival);
      return;
    case Delivery::kContinuation:
      net.send_resume(src, dst, words, kind, new Arrival<F>(on_arrival));
      return;
  }
}

/// What a test observes of one run: arrival cycles and traffic counters.
struct Seen {
  std::vector<Cycles> arrivals;
  NetStats stats;
};

void expect_same(const Seen& a, const Seen& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.words, b.stats.words);
  EXPECT_EQ(a.stats.runtime_messages, b.stats.runtime_messages);
  EXPECT_EQ(a.stats.coherence_messages, b.stats.coherence_messages);
}

/// Every delivery kind saw what the closure did.
void expect_all_same(const Seen (&seen)[kKinds]) {
  for (int k = 1; k < kKinds; ++k) {
    SCOPED_TRACE(name_of(kDeliveries[k]));
    expect_same(seen[0], seen[k]);
  }
}

TEST(ConstantNetwork, LatencyIsLaunchPlusPerWord) {
  Engine eng;
  ConstantNetwork net(eng, {.launch = 9, .per_word = 1});
  EXPECT_EQ(net.latency(0, 5, 8), 17u);  // the paper's Table-5 transit value
  EXPECT_EQ(net.latency(0, 5, 0), 9u);
  EXPECT_EQ(net.latency(3, 3, 100), 0u);  // loopback
}

TEST(ConstantNetwork, DeliversAtLatency) {
  Seen seen[kKinds];
  for (const Delivery how : kDeliveries) {
    SCOPED_TRACE(name_of(how));
    Engine eng;
    ConstantNetwork net(eng, {.launch = 9, .per_word = 1});
    Cycles delivered = 0;
    send_by(how, net, 0, 1, 8, Traffic::kRuntime,
            [&] { delivered = eng.now(); });
    eng.run();
    EXPECT_EQ(delivered, 17u);
    EXPECT_EQ(net.stats().messages, 1u);
    EXPECT_EQ(net.stats().runtime_words, 8u);
    seen[static_cast<int>(how)] = {{delivered}, net.stats()};
  }
  expect_all_same(seen);
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

/// A loopback message 4 -> 4 sent at cycle 5 by an event homed at
/// processor 2: delivered at once, in an event homed where the sender's
/// event was, and never counted as traffic.
Seen loopback(Delivery how, Engine& eng, Network& net) {
  Cycles delivered = 99;
  ProcId home = 99;
  eng.at_on(2, 5, [&] {
    send_by(how, net, 4, 4, 8, Traffic::kRuntime, [&] {
      delivered = eng.now();
      home = eng.current_home();
    });
  });
  eng.run();
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(home, 2u);
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().words, 0u);
  return {{delivered}, net.stats()};
}

TEST(ConstantNetwork, LoopbackIsFreeAndUncounted) {
  Seen seen[kKinds];
  for (const Delivery how : kDeliveries) {
    SCOPED_TRACE(name_of(how));
    Engine eng;
    ConstantNetwork net(eng);
    seen[static_cast<int>(how)] = loopback(how, eng, net);
  }
  expect_all_same(seen);
}

TEST(ConstantNetwork, ResumeAndClosureDeliveriesInOneCycleRunInLabelOrder) {
  Engine eng;
  ConstantNetwork net(eng, {.launch = 9, .per_word = 1});
  std::vector<int> order;
  auto arrive = [&order](int tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  // From lane 0, in this order: a plain event, a closure delivery, a resume
  // delivery and a plain event, all due at cycle 17.
  eng.at(17, arrive(1));
  net.send(0, 1, 8, Traffic::kRuntime, arrive(2));
  receive(net, 0, 1, 8, Traffic::kCoherence, arrive(3));
  eng.at(17, arrive(4));
  // Two messages sent at cycle 7, due at 17: first from processor 3's lane
  // (a resume delivery), then from processor 1's (a closure). Processor 1's
  // lane is lower, so its delivery runs first, after every lane-0 event.
  eng.at_on(3, 7, [&] {
    receive(net, 3, 2, 1, Traffic::kRuntime, arrive(6));
  });
  eng.at_on(1, 7, [&] { net.send(1, 2, 1, Traffic::kRuntime, arrive(5)); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
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
  Seen seen[kKinds];
  for (const Delivery how : kDeliveries) {
    SCOPED_TRACE(name_of(how));
    Engine eng;
    MeshNetwork net(eng, 16, {.width = 4});
    const Cycles expect = net.latency(1, 14, 6);
    Cycles got = 0;
    send_by(how, net, 1, 14, 6, Traffic::kCoherence,
            [&] { got = eng.now(); });
    eng.run();
    EXPECT_EQ(got, expect);
    EXPECT_EQ(net.stats().coherence_messages, 1u);
    EXPECT_EQ(net.stats().coherence_words, 6u);
    seen[static_cast<int>(how)] = {{got}, net.stats()};
  }
  expect_all_same(seen);
}

TEST(MeshNetwork, ContentionDelaysSecondMessageOnSharedLink) {
  Seen seen[kKinds];
  std::uint64_t link_words[kKinds] = {};
  for (const Delivery how : kDeliveries) {
    SCOPED_TRACE(name_of(how));
    Engine eng;
    MeshConfig cfg{.width = 4, .launch = 4, .per_hop = 2, .per_word = 1};
    MeshNetwork net(eng, 16, cfg);
    Cycles first = 0, second = 0;
    // Both messages cross link (0 -> 1); the second must queue behind the
    // first's occupancy.
    send_by(how, net, 0, 1, 10, Traffic::kRuntime,
            [&] { first = eng.now(); });
    send_by(how, net, 0, 1, 10, Traffic::kRuntime,
            [&] { second = eng.now(); });
    eng.run();
    EXPECT_GT(second, first);
    seen[static_cast<int>(how)] = {{first, second}, net.stats()};
    link_words[static_cast<int>(how)] = net.max_link_words();
  }
  expect_all_same(seen);
  EXPECT_EQ(link_words[0], link_words[1]);
  EXPECT_EQ(link_words[0], link_words[2]);
}

TEST(MeshNetwork, LoopbackIsFreeAndUncounted) {
  Seen seen[kKinds];
  for (const Delivery how : kDeliveries) {
    SCOPED_TRACE(name_of(how));
    Engine eng;
    MeshNetwork net(eng, 16, {.width = 4});
    seen[static_cast<int>(how)] = loopback(how, eng, net);
  }
  expect_all_same(seen);
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

TEST(MeshNetwork, RejectsZeroWidth) {
  Engine eng;
  EXPECT_THROW(MeshNetwork(eng, 16, {.width = 0}), std::invalid_argument);
  EXPECT_THROW(MeshNetwork(eng, 0, {.width = 0}), std::invalid_argument);
}

TEST(MeshNetwork, RejectsProcessorsOutsideTheMachine) {
  Engine eng;
  MeshNetwork net(eng, 4);
  // Processor 4 and up have no node, on either delivery kind and whichever
  // endpoint names them; loopback included.
  const std::coroutine_handle<> never = std::noop_coroutine();
  const std::pair<ProcId, ProcId> outside[] = {
      {0, 20}, {20, 0}, {0, 4}, {4, 4}};
  for (const auto& [src, dst] : outside) {
    EXPECT_THROW(net.send(src, dst, 2, Traffic::kRuntime, [] {}),
                 std::out_of_range);
    EXPECT_THROW(net.send_resume(src, dst, 2, Traffic::kCoherence, never),
                 std::out_of_range);
  }
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.max_link_words(), 0u);
  EXPECT_TRUE(eng.idle());
  // The last processor in the machine is fine.
  net.send(0, 3, 2, Traffic::kRuntime, [] {});
  eng.run();
  EXPECT_EQ(net.stats().messages, 1u);
}

}  // namespace
}  // namespace cm::net
