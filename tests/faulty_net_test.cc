#include "net/faulty_net.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "net/constant_net.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sim/tracer.h"

namespace cm::net {
namespace {

struct World {
  sim::Engine eng;
  ConstantNetwork inner;
  World() : inner(eng) {}
};

/// A frame-free receiver that runs `f` on every wake: re-runnable, and alive
/// for the whole test, as every wake on faultable traffic must be.
template <class F>
struct OnWake : sim::Continuation {
  F f;
  explicit OnWake(F fn) : f(std::move(fn)) {
    run = [](sim::Continuation* c) { static_cast<OnWake*>(c)->f(); };
  }
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
  OnWake arrive([&] { ++delivered; });
  for (int i = 0; i < 100; ++i) net.send(0, 1, 4, Traffic::kRuntime, &arrive);
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
  OnWake arrive([&] { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(0, 1, 4, Traffic::kRuntime, &arrive);
  w.eng.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().faults_dropped, 10u);
  // Dropped messages never reach the wire: no traffic recorded.
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(FaultyNetwork, CoherenceTrafficUntouchedByDefault) {
  // No plan faults coherence traffic: under a certain drop, a certain delay
  // and a receiver NIC dead from cycle 0 alike, one coherence message
  // arrives exactly once, at its zero-load latency, and no fault counter
  // moves.
  FaultPlan drop;
  drop.rates.drop = 1.0;
  FaultPlan delay;
  delay.rates.delay = 1.0;
  FaultPlan dead_nic;
  dead_nic.nic_fail_at[1] = 0;
  for (const FaultPlan& plan : {drop, delay, dead_nic}) {
    World w;
    FaultyNetwork net(w.eng, w.inner, plan);
    std::vector<sim::Cycles> arrivals;
    OnWake arrive([&] { arrivals.push_back(w.eng.now()); });
    net.send(0, 1, 4, Traffic::kCoherence, &arrive);
    w.eng.run();
    EXPECT_EQ(arrivals, std::vector<sim::Cycles>{w.inner.latency(0, 1, 4)});
    const NetStats& s = net.stats();
    EXPECT_EQ(s.coherence_messages, 1u);
    EXPECT_EQ(s.faults_dropped, 0u);
    EXPECT_EQ(s.faults_duplicated, 0u);
    EXPECT_EQ(s.faults_delayed, 0u);
    EXPECT_EQ(s.faults_nic_dropped, 0u);
  }
}

/// A receiver coroutine woken by a resume delivery of one message.
sim::Detached receive(Network& net, sim::ProcId src, sim::ProcId dst,
                      Traffic kind, const sim::Engine& eng,
                      sim::Cycles* arrived) {
  co_await sim::suspend_to([&net, src, dst, kind](std::coroutine_handle<> h) {
    net.send(src, dst, 4, kind, h);
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
  // Runtime traffic a plan can fault goes through the fault layer: here it
  // is held back past its zero-load latency.
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
  // A Continuation on traffic the plan can fault goes through the fault
  // layer, as a coroutine resume does: a certain duplicate sends the same
  // wake again from the layer's deferred closure event, so it runs twice.
  // On coherence traffic, which the plan cannot fault, the wake reaches the
  // inner network untouched and runs once.
  World w;
  FaultPlan plan;
  plan.rates.duplicate = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  Wakes runtime;
  net.send(0, 1, 4, Traffic::kRuntime, &runtime);
  w.eng.run();
  EXPECT_EQ(runtime.count, 2);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(net.stats().runtime_messages, 2u);

  Wakes coherence;
  const std::size_t events = w.eng.events_executed();
  net.send(0, 1, 4, Traffic::kCoherence, &coherence);
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
  OnWake arrive([&] { ++delivered; });
  net.send(2, 2, 4, Traffic::kRuntime, &arrive);
  w.eng.run();
  EXPECT_EQ(delivered, 1);
}

TEST(FaultyNetwork, CertainDuplicateDeliversTwice) {
  World w;
  FaultPlan plan;
  plan.rates.duplicate = 1.0;
  FaultyNetwork net(w.eng, w.inner, plan);
  int delivered = 0;
  OnWake arrive([&] { ++delivered; });
  net.send(0, 1, 4, Traffic::kRuntime, &arrive);
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
  OnWake arrive([&] { arrived = w.eng.now(); });
  net.send(0, 1, 4, Traffic::kRuntime, &arrive);
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
  OnWake first([&] { order.push_back(1); });
  OnWake second([&] { order.push_back(2); });
  net.send(0, 1, 4, Traffic::kRuntime, &first);
  // Second message on an un-faulted link overtakes the delayed first one.
  net.send(2, 1, 4, Traffic::kRuntime, &second);
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
  OnWake arrive([&] { ++delivered; });
  auto fire = [&] { net.send(0, 1, 4, Traffic::kRuntime, &arrive); };
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
  OnWake arrive([&] { ++delivered; });
  auto fire = [&](sim::ProcId s, sim::ProcId d) {
    net.send(s, d, 4, Traffic::kRuntime, &arrive);
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
  OnWake kept([&] { ++ok; });
  OnWake dropped([&] { ++lost; });
  net.send(0, 1, 4, Traffic::kRuntime, &kept);
  net.send(0, 2, 4, Traffic::kRuntime, &dropped);
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
    OnWake arrive([&] { ++delivered; });
    for (int i = 0; i < 500; ++i) {
      net.send(0, 1, 4, Traffic::kRuntime, &arrive);
    }
    w.eng.run();
    const NetStats& s = net.stats();
    return std::tuple{delivered, s.faults_dropped, s.faults_duplicated,
                      s.faults_delayed};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // and the seed actually matters
}

/// The msg ids of every `name` record ("msg.send" or "msg.deliver") in a
/// Chrome trace, in record order.
std::vector<std::uint64_t> msg_ids(const std::string& json,
                                   const std::string& name) {
  std::vector<std::uint64_t> ids;
  const std::regex id("\"msg\":([0-9]+)");
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\":\"" + name + "\"") == std::string::npos) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(line, m, id)) ids.push_back(std::stoull(m[1]));
  }
  return ids;
}

TEST(FaultyNetwork, ObservedCopiesAreMessagesOfTheirOwn) {
  // With a tracer and a checker installed, every copy the fault layer puts
  // on the wire departs through the inner network's one send: a duplicate
  // and a delayed message are each their own msg.send/msg.deliver pair and
  // their own happens-before edge, and each copy wakes the same
  // re-runnable Continuation once. A dropped message never departs: it is
  // traced as a drop, and the edge it would have closed stays open.
  World w;
  sim::Tracer tracer(w.eng);
  check::Checker checker(w.eng, 4);
  w.eng.set_tracer(&tracer);
  w.eng.set_checker(&checker);
  FaultPlan plan;
  plan.link_overrides[{0, 1}] = FaultRates{.duplicate = 1.0};
  plan.link_overrides[{0, 2}] = FaultRates{.delay = 1.0};
  plan.link_overrides[{0, 3}] = FaultRates{.drop = 1.0};
  FaultyNetwork net(w.eng, w.inner, plan);
  struct Seen {
    int wakes = 0;
    sim::Cycles last = 0;
  } dup, delayed, dropped;
  const auto noting = [&w](Seen& seen) {
    return [&w, &seen] {
      ++seen.wakes;
      seen.last = w.eng.now();
    };
  };
  OnWake to1(noting(dup));
  OnWake to2(noting(delayed));
  OnWake to3(noting(dropped));
  net.send(0, 1, 4, Traffic::kRuntime, &to1);
  net.send(0, 2, 4, Traffic::kRuntime, &to2);
  net.send(0, 3, 4, Traffic::kRuntime, &to3);
  // When the undisturbed copy arrives, only its edge has closed.
  w.eng.run_until(w.inner.latency(0, 1, 4));
  EXPECT_EQ(dup.wakes, 1);
  EXPECT_EQ(delayed.wakes, 0);
  EXPECT_EQ(checker.stats().delivers, 1u);
  w.eng.run();

  EXPECT_EQ(dup.wakes, 2);
  EXPECT_EQ(delayed.wakes, 1);
  EXPECT_GT(delayed.last, w.inner.latency(0, 2, 4));
  EXPECT_EQ(dropped.wakes, 0);
  EXPECT_EQ(net.stats().faults_duplicated, 1u);
  EXPECT_EQ(net.stats().faults_delayed, 1u);
  EXPECT_EQ(net.stats().faults_dropped, 1u);

  // Three copies reached the wire, each a pair with an id of its own.
  const std::string json = tracer.chrome_json();
  const std::vector<std::uint64_t> sent = msg_ids(json, "msg.send");
  std::vector<std::uint64_t> delivered = msg_ids(json, "msg.deliver");
  EXPECT_EQ(sent.size(), 3u);
  EXPECT_EQ(std::set<std::uint64_t>(sent.begin(), sent.end()).size(), 3u);
  EXPECT_EQ(std::set<std::uint64_t>(delivered.begin(), delivered.end()),
            std::set<std::uint64_t>(sent.begin(), sent.end()));
  EXPECT_EQ(tracer.count(sim::TraceEvent::kFaultDrop), 1u);

  // Each copy closed its own edge; the dropped message's receiver never
  // joined the sender's clock.
  EXPECT_EQ(checker.stats().sends, 3u);
  EXPECT_EQ(checker.stats().delivers, 3u);
  EXPECT_GT(checker.clock(1)[0], 0u);
  EXPECT_GT(checker.clock(2)[0], 0u);
  EXPECT_EQ(checker.clock(3)[0], 0u);
  EXPECT_EQ(checker.violations(), 0u);

  // A copy still in flight at teardown: its record is freed with the inner
  // network (the leak checker of a sanitized build would see it otherwise).
  net.send(0, 1, 4, Traffic::kRuntime, &to1);
  EXPECT_FALSE(w.eng.idle());
}

}  // namespace
}  // namespace cm::net
