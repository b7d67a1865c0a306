// Host-performance harness: how fast does the simulator itself run?
//
// Every experiment in this reproduction bottoms out in sim::Engine's event
// loop, so its host-side throughput — simulated events per wall second —
// is the quantity that decides how far the system scales (1000+ simulated
// processors, parameter sweeps, chaos soaks). This harness times fixed-seed
// fig2 (counting network, 64 and 256 requesters) and table1_2 (B-tree,
// under computation migration, under shared memory, and under RPC and
// computation migration with the root replicated) workload
// configurations, the bare engine on two burst sizes, plus a hold model
// that drives the engine's calendar queue and the binary-heap reference
// queue directly, and writes BENCH_host_perf.json in the unified metrics
// schema:
//
//   label                         = "<config>/<queue>"
//   host.events_per_sec           = median over the reps of events / second
//   host.events_per_sec_q1, _q3   = the reps' quartiles of the same rate
//   host.wall_seconds             = one run's wall time at the median rate
//   host.sim_cycles_per_sec       = completed_at / wall_seconds
//   sim.events_executed, sim.completed_at  (one run), host.repetitions
//
// Each of the `kReps` reps repeats its row's run until at least `kMinRep`
// (0.3 s) of wall time have passed, so that scheduler noise on a shared
// host stays small against the rate.
//
// tools/bench_report gates CI on every "/calendar" record, and on the
// queue_hold calendar/heap speedup. The two hold-model runs must fire the
// same events in the same order before any number is reported: a queue
// that got faster by computing something else fails here, not in CI
// triage.
//
// Usage: host_perf [out.json]   (default: BENCH_host_perf.json)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/workload.h"
#include "core/metrics.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

using cm::apps::BTreeConfig;
using cm::apps::CountingConfig;
using cm::apps::RunStats;
using cm::apps::Window;
using cm::core::Mechanism;
using cm::core::MetricsRegistry;
using cm::core::Scheme;
using cm::sim::Cycles;

namespace {

constexpr int kReps = 7;  // median and quartiles over these
// Each rep repeats its row's run until at least this much wall time passed.
constexpr std::chrono::duration<double> kMinRep{0.3};

/// What one run of a row did; every run of a row does the same.
struct Run {
  std::uint64_t events = 0;
  Cycles completed_at = 0;
};

/// One row: its run, and each rep's events per second, sorted ascending.
struct Timing {
  Run run;
  std::array<double, kReps> rates{};
};

/// Time `run`, which returns the `Run` it did, over `kReps` reps.
template <class RunFn>
Timing time_reps(RunFn&& run) {
  Timing t;
  for (double& rate : t.rates) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    std::chrono::duration<double> elapsed{0.0};
    do {
      t.run = run();
      events += t.run.events;
      elapsed = std::chrono::steady_clock::now() - t0;
    } while (elapsed < kMinRep);
    rate = static_cast<double>(events) / elapsed.count();
  }
  std::sort(t.rates.begin(), t.rates.end());
  return t;
}

/// Quantile `p` of the sorted rates, interpolating between neighbours.
double quantile(const std::array<double, kReps>& rates, double p) {
  const double pos = p * (kReps - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min<std::size_t>(lo + 1, kReps - 1);
  return rates[lo] + (rates[hi] - rates[lo]) * (pos - static_cast<double>(lo));
}

void report(MetricsRegistry& reg, const std::string& label, const Timing& t) {
  cm::core::Metrics& m = reg.record(label);
  const double rate = quantile(t.rates, 0.5);
  const double q1 = quantile(t.rates, 0.25);
  const double q3 = quantile(t.rates, 0.75);
  const double wall = static_cast<double>(t.run.events) / rate;
  const double cycle_rate = static_cast<double>(t.run.completed_at) / wall;
  m.put("host.wall_seconds", wall);
  m.put("host.events_per_sec", rate);
  m.put("host.events_per_sec_q1", q1);
  m.put("host.events_per_sec_q3", q3);
  m.put("host.sim_cycles_per_sec", cycle_rate);
  m.put("host.repetitions", kReps);
  m.put("sim.events_executed", t.run.events);
  m.put("sim.completed_at", t.run.completed_at);
  std::printf("%-26s %10.3f  %11.0f [%11.0f, %11.0f]  %12.0f\n",
              label.c_str(), wall * 1e3, rate, q1, q3, cycle_rate);
}

Run workload_run(const RunStats& r) {
  return Run{r.events_executed, r.completed_at};
}

CountingConfig fig2_64() {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 64;  // the paper's largest fig2 point: deepest queues
  cfg.think = 0;
  // Same shape as the paper's fig2 run but a 10x measurement window, so a
  // run is mostly steady state rather than set-up and warm-up.
  cfg.window = Window{30'000, 2'000'000};
  return cfg;
}

BTreeConfig table1_2() {
  BTreeConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 16;
  cfg.window = Window{20'000, 1'500'000};  // 10x window; see fig2_64
  return cfg;
}

// The same tree under shared memory: the row that times the coherence
// layer (src/shmem).
BTreeConfig table1_2_sm() {
  BTreeConfig cfg = table1_2();
  cfg.scheme = Scheme{Mechanism::kSharedMemory, false, false};
  return cfg;
}

// The same tree under RPC and under computation migration, each with the
// root replicated in software: the rows that time the remote-call path and
// the replica protocol (src/core).
BTreeConfig table1_2_rpc_repl() {
  BTreeConfig cfg = table1_2();
  cfg.scheme = Scheme{Mechanism::kRpc, false, true};
  return cfg;
}

BTreeConfig table1_2_cp_repl() {
  BTreeConfig cfg = table1_2();
  cfg.scheme = Scheme{Mechanism::kMigration, false, true};
  return cfg;
}

// 4x the requesters of fig2_64, on the uniform-latency network.
CountingConfig fig2_256() {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.mesh = false;
  cfg.requesters = 256;
  cfg.think = 0;
  cfg.window = Window{30'000, 500'000};
  return cfg;
}

/// The bare engine from construction to drain, as in a unit test: `n`
/// closures scheduled from setup at cycles 0..96, then run. At n = 100,000
/// each cycle holds about 1,000 events from one lane, which is the case
/// where a slot's append must stay O(1).
Run engine_burst(int n) {
  cm::sim::Engine eng;
  std::uint64_t fired = 0;
  for (int i = 0; i < n; ++i) {
    eng.at(static_cast<Cycles>(i % 97), [&fired] { ++fired; });
  }
  eng.run();
  return Run{fired, eng.now()};
}

/// Time and report one burst row; false if a run lost an event.
bool burst_row(MetricsRegistry& reg, const std::string& label, int n) {
  const Timing t = time_reps([n] { return engine_burst(n); });
  if (t.run.events != static_cast<std::uint64_t>(n)) {
    std::fprintf(stderr, "FATAL: %s fired %llu of %d events\n", label.c_str(),
                 static_cast<unsigned long long>(t.run.events), n);
    return false;
  }
  report(reg, label, t);
  return true;
}

// The hold model: `kHoldDepth` events stay pending throughout. Each step
// pops the earliest event, runs it, and pushes a replacement a seeded
// random 1..2*kHoldGap cycles after it, so both queues see the same
// near-monotone timestamps the engine produces.
constexpr std::size_t kHoldDepth = 1'000;
constexpr std::uint64_t kHoldEvents = 2'000'000;
constexpr Cycles kHoldGap = 100;
constexpr std::uint64_t kHoldSeed = 1;

/// What a hold-model event does when it runs: fold its timestamp into a
/// digest, so both queues must fire the same events in the same order.
struct HoldSink {
  std::uint64_t fired = 0;
  std::uint64_t digest = 0;
  Cycles last = 0;

  void fire(Cycles t) {
    ++fired;
    digest = digest * 1'099'511'628'211ull + t;
    last = t;
  }
};

HoldSink hold_calendar() {
  cm::sim::CalendarQueue queue;
  cm::sim::EventArena arena;
  cm::sim::Rng rng(kHoldSeed);
  HoldSink sink;
  std::uint64_t seq = 0;
  auto push = [&](Cycles t) {
    queue.push(t, seq++, arena.emplace([&sink, t] { sink.fire(t); }), 0);
  };
  for (std::size_t i = 0; i < kHoldDepth; ++i) {
    push(1 + rng.below(2 * kHoldGap));
  }
  for (std::uint64_t n = 0; n < kHoldEvents; ++n) {
    const cm::sim::EventKey k = queue.pop_move();
    arena.run(static_cast<std::uint32_t>(k.payload));
    push(k.t + 1 + rng.below(2 * kHoldGap));
  }
  while (!queue.empty()) {
    arena.destroy(static_cast<std::uint32_t>(queue.pop_move().payload));
  }
  return sink;
}

HoldSink hold_heap() {
  cm::sim::HeapEventQueue queue;
  cm::sim::Rng rng(kHoldSeed);
  HoldSink sink;
  std::uint64_t seq = 0;
  auto push = [&](Cycles t) {
    queue.push(t, seq++, [&sink, t] { sink.fire(t); });
  };
  for (std::size_t i = 0; i < kHoldDepth; ++i) {
    push(1 + rng.below(2 * kHoldGap));
  }
  for (std::uint64_t n = 0; n < kHoldEvents; ++n) {
    cm::sim::HeapEvent ev = queue.pop_move();
    ev.fn();
    push(ev.t + 1 + rng.below(2 * kHoldGap));
  }
  return sink;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_host_perf.json";
  MetricsRegistry reg;
  std::printf("%-26s %10s  %11s [%11s, %11s]  %12s\n", "record", "run ms",
              "events/s", "q1", "q3", "cycles/s");

  report(reg, "fig2_64/calendar",
         time_reps([] { return workload_run(run_counting(fig2_64())); }));
  report(reg, "table1_2/calendar",
         time_reps([] { return workload_run(run_btree(table1_2())); }));
  report(reg, "table1_2_sm/calendar",
         time_reps([] { return workload_run(run_btree(table1_2_sm())); }));
  report(reg, "table1_2_rpc_repl/calendar", time_reps([] {
           return workload_run(run_btree(table1_2_rpc_repl()));
         }));
  report(reg, "table1_2_cp_repl/calendar", time_reps([] {
           return workload_run(run_btree(table1_2_cp_repl()));
         }));
  report(reg, "fig2_256/calendar",
         time_reps([] { return workload_run(run_counting(fig2_256())); }));

  if (!burst_row(reg, "engine_burst_1k/calendar", 1'000) ||
      !burst_row(reg, "engine_burst_100k/calendar", 100'000)) {
    return 2;
  }

  HoldSink cal;
  HoldSink heap;
  const Timing cal_t = time_reps([&cal] {
    cal = hold_calendar();
    return Run{cal.fired, cal.last};
  });
  const Timing heap_t = time_reps([&heap] {
    heap = hold_heap();
    return Run{heap.fired, heap.last};
  });
  if (cal.fired != heap.fired || cal.digest != heap.digest ||
      cal.last != heap.last) {
    std::fprintf(stderr,
                 "FATAL: queue_hold diverged across queues\n"
                 "  fired %llu vs %llu  last %llu vs %llu\n",
                 static_cast<unsigned long long>(cal.fired),
                 static_cast<unsigned long long>(heap.fired),
                 static_cast<unsigned long long>(cal.last),
                 static_cast<unsigned long long>(heap.last));
    return 2;
  }
  report(reg, "queue_hold/calendar", cal_t);
  report(reg, "queue_hold/heap", heap_t);
  std::printf("%-26s speedup calendar/heap: %.2fx\n", "queue_hold",
              quantile(cal_t.rates, 0.5) / quantile(heap_t.rates, 0.5));

  if (!reg.write_json(out)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
