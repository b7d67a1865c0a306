#include "net/faulty_net.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "net/constant_net.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace cm::net {
namespace {

struct World {
  sim::Engine eng;
  ConstantNetwork inner;
  World() : inner(eng) {}
};

TEST(FaultPlan, ActiveDetection) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  plan.rates.drop = 0.1;
  EXPECT_TRUE(plan.active());

  FaultPlan per_link;
  per_link.link_overrides[{0, 1}] = FaultRates{.drop = 1.0};
  EXPECT_TRUE(per_link.active());
  per_link.link_overrides[{0, 1}] = FaultRates{};
  EXPECT_FALSE(per_link.active());

  FaultPlan nic;
  nic.nic_fail_at[3] = 100;
  EXPECT_TRUE(nic.active());
}

TEST(FaultyNetwork, InactivePlanForwardsEverything) {
  World w;
  FaultyNetwork net(w.eng, w.inner, FaultPlan{});
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    net.send(0, 1, 4, Traffic::kRuntime, [&] { ++delivered; });
  }
  w.eng.run();
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(net.stats().messages, 100u);
  EXPECT_EQ(net.stats().faults_dropped, 0u);
  // Timing queries pass straight through.
  EXPECT_EQ(net.latency(0, 1, 4), w.inner.latency(0, 1, 4));
}

TEST(FaultyNetwork, CertainDropEatsRuntimeMessages) {
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, 4, Traffic::kRuntime, [&] { ++delivered; });
  }
  w.eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().faults_dropped, 10u);
  // Dropped messages never reach the wire: no traffic recorded.
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(FaultyNetwork, CoherenceTrafficUntouchedByDefault) {
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  net.send(0, 1, 4, Traffic::kCoherence, [&] { ++delivered; });
  w.eng.run();
  EXPECT_EQ(delivered, 1);

  plan.affect_coherence = true;
  FaultyNetwork net2(w.eng, w.inner, plan);
  int delivered2 = 0;
  net2.send(0, 1, 4, Traffic::kCoherence, [&] { ++delivered2; });
  w.eng.run();
  EXPECT_EQ(delivered2, 0);
}

/// A receiver coroutine woken by a resume delivery of one message.
sim::Detached receive(Network& net, sim::ProcId src, sim::ProcId dst,
                      Traffic kind, const sim::Engine& eng,
                      sim::Cycles* arrived) {
  co_await sim::suspend_to([&net, src, dst, kind](std::coroutine_handle<> h) {
    net.send_resume(src, dst, 4, kind, h);
  });
  *arrived = eng.now();
}

TEST(FaultyNetwork, CoherenceResumeDeliveryPassesThroughUntouched) {
  // A plan that would eat every faultable message leaves coherence traffic
  // alone: the resume delivery reaches the inner network as it is, and
  // arrives at its zero-load latency, resumed exactly once.
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;
  plan.rates.duplicate = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  sim::Cycles arrived = 0;
  receive(net, 0, 1, Traffic::kCoherence, w.eng, &arrived);
  w.eng.run();
  EXPECT_EQ(arrived, w.inner.latency(0, 1, 4));
  EXPECT_EQ(net.stats().coherence_messages, 1u);
  EXPECT_EQ(net.stats().faults_dropped, 0u);
  EXPECT_EQ(net.stats().faults_duplicated, 0u);
  EXPECT_EQ(w.eng.events_executed(), 1u);
}

TEST(FaultyNetwork, RuntimeResumeDeliveryIsFaultedLikeASend) {
  // Runtime traffic a plan can fault takes the closure path through the
  // fault layer: here it is held back past its zero-load latency.
  World w;
  FaultPlan plan;
  plan.rates.delay = 1.0;
  plan.max_extra_delay = 100;
  FaultyNetwork net(w.eng, w.inner, plan);
  sim::Cycles arrived = 0;
  receive(net, 0, 1, Traffic::kRuntime, w.eng, &arrived);
  w.eng.run();
  EXPECT_GT(arrived, net.latency(0, 1, 4));
  EXPECT_LE(arrived, net.latency(0, 1, 4) + 100);
  EXPECT_EQ(net.stats().faults_delayed, 1u);
  EXPECT_EQ(net.stats().runtime_messages, 1u);
}

/// A frame-free receiver that counts its wakes.
struct Wakes : sim::Continuation {
  int count = 0;
  Wakes() {
    run = [](sim::Continuation* c) { ++static_cast<Wakes*>(c)->count; };
  }
};

TEST(FaultyNetwork, RuntimeContinuationIsWrappedInAClosureLikeAResume) {
  // A Continuation on traffic the plan can fault takes the closure path
  // through the fault layer, as a coroutine resume does: a certain
  // duplicate runs it twice. On coherence traffic, which the plan cannot
  // fault, the same wake reaches the inner network untouched and runs once.
  World w;
  FaultPlan plan;
  plan.rates.duplicate = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  Wakes runtime;
  net.send_resume(0, 1, 4, Traffic::kRuntime, &runtime);
  w.eng.run();
  EXPECT_EQ(runtime.count, 2);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(net.stats().runtime_messages, 2u);

  Wakes coherence;
  const std::size_t events = w.eng.events_executed();
  net.send_resume(0, 1, 4, Traffic::kCoherence, &coherence);
  w.eng.run();
  EXPECT_EQ(coherence.count, 1);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(w.eng.events_executed(), events + 1);
}

TEST(FaultyNetwork, LoopbackNeverFaulted) {
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  net.send(2, 2, 4, Traffic::kRuntime, [&] { ++delivered; });
  w.eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST(FaultyNetwork, CertainDuplicateDeliversTwice) {
  World w;
  FaultPlan plan;
  plan.rates.duplicate = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  net.send(0, 1, 4, Traffic::kRuntime, [&] { ++delivered; });
  w.eng.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(net.stats().messages, 2u);  // the clone is real traffic
}

TEST(FaultyNetwork, CertainDelayArrivesLaterThanZeroLoadLatency) {
  World w;
  FaultPlan plan;
  plan.rates.delay = 1.0;
  plan.max_extra_delay = 100;
  FaultyNetwork net(w.eng, w.inner, plan);
  sim::Cycles arrived = 0;
  net.send(0, 1, 4, Traffic::kRuntime, [&] { arrived = w.eng.now(); });
  w.eng.run();
  EXPECT_GT(arrived, net.latency(0, 1, 4));
  EXPECT_LE(arrived, net.latency(0, 1, 4) + 100);
  EXPECT_EQ(net.stats().faults_delayed, 1u);
}

TEST(FaultyNetwork, DelayReordersAgainstLaterSend) {
  World w;
  FaultPlan plan;
  plan.link_overrides[{0, 1}] = FaultRates{.delay = 1.0};
  plan.max_extra_delay = 1000;
  FaultyNetwork net(w.eng, w.inner, plan);
  std::vector<int> order;
  net.send(0, 1, 4, Traffic::kRuntime, [&] { order.push_back(1); });
  // Second message on an un-faulted link overtakes the delayed first one.
  net.send(2, 1, 4, Traffic::kRuntime, [&] { order.push_back(2); });
  w.eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(FaultyNetwork, FaultWindowLimitsInjection) {
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;
  plan.window_start = 100;
  plan.window_end = 200;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  auto fire = [&] { net.send(0, 1, 4, Traffic::kRuntime, [&] { ++delivered; }); };
  w.eng.at(50, fire);    // before the window: delivered
  w.eng.at(150, fire);   // inside: dropped
  w.eng.at(250, fire);   // after: delivered
  w.eng.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().faults_dropped, 1u);
}

TEST(FaultyNetwork, FailStopNicEatsBothDirectionsAfterDeadline) {
  World w;
  FaultPlan plan;
  plan.nic_fail_at[1] = 100;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  auto fire = [&](sim::ProcId s, sim::ProcId d) {
    net.send(s, d, 4, Traffic::kRuntime, [&] { ++delivered; });
  };
  fire(0, 1);  // t=0: NIC still alive
  w.eng.at(150, [&] {
    fire(0, 1);  // to the dead NIC
    fire(1, 0);  // from the dead NIC
    fire(0, 2);  // unrelated link still works
  });
  w.eng.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().faults_nic_dropped, 2u);
}

TEST(FaultyNetwork, PerLinkOverrideBeatsDefaultRates) {
  World w;
  FaultPlan plan;
  plan.rates.drop = 1.0;                          // default: everything dies
  plan.link_overrides[{0, 1}] = FaultRates{};     // ...except this link
  FaultyNetwork net(w.eng, w.inner, plan);
  int ok = 0, lost = 0;
  net.send(0, 1, 4, Traffic::kRuntime, [&] { ++ok; });
  net.send(0, 2, 4, Traffic::kRuntime, [&] { ++lost; });
  w.eng.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(lost, 0);
}

TEST(FaultyNetwork, SeededRunsAreReproducible) {
  auto run = [](std::uint64_t seed) {
    World w;
    FaultPlan plan;
    plan.rates = FaultRates{.drop = 0.3, .duplicate = 0.2, .delay = 0.25};
    plan.seed = seed;
    FaultyNetwork net(w.eng, w.inner, plan);
    int delivered = 0;
    for (int i = 0; i < 500; ++i) {
      net.send(0, 1, 4, Traffic::kRuntime, [&] { ++delivered; });
    }
    w.eng.run();
    const NetStats& s = net.stats();
    return std::tuple{delivered, s.faults_dropped, s.faults_duplicated,
                      s.faults_delayed};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

}  // namespace
}  // namespace cm::net
