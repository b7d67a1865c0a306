// Host-performance harness: how fast does the simulator itself run?
//
// Every experiment in this reproduction bottoms out in sim::Engine's event
// loop, so its host-side throughput — simulated events per wall second —
// is the quantity that decides how far the system scales (1000+ simulated
// processors, parameter sweeps, chaos soaks). This harness times fixed-seed
// fig2 (counting network, 64 and 256 requesters) and table1_2 (B-tree,
// under computation migration and under shared memory) workload
// configurations, plus a hold model that drives the engine's
// calendar queue and the binary-heap reference queue directly, and writes
// BENCH_host_perf.json in the unified metrics schema:
//
//   label                         = "<config>/<queue>"
//   host.wall_seconds             = best-of-R wall time for the run
//   host.events_per_sec           = events executed / wall_seconds
//   host.sim_cycles_per_sec       = completed_at / wall_seconds
//   sim.events_executed, sim.completed_at, host.repetitions
//
// tools/bench_report gates CI on every "/calendar" record, and on the
// queue_hold calendar/heap speedup. The two hold-model runs must fire the
// same events in the same order before any number is reported: a queue
// that got faster by computing something else fails here, not in CI
// triage.
//
// Usage: host_perf [out.json]   (default: BENCH_host_perf.json)
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "apps/workload.h"
#include "core/metrics.h"
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

constexpr int kReps = 5;  // best-of, to shed scheduler noise

/// The best-of-`kReps` result of `run` and its wall time in seconds.
template <class RunFn>
auto best_of(RunFn&& run) {
  decltype(run()) best{};
  double best_wall = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (i == 0 || secs < best_wall) {
      best = std::move(r);
      best_wall = secs;
    }
  }
  return std::pair{std::move(best), best_wall};
}

void report(MetricsRegistry& reg, const std::string& label,
            std::uint64_t events, Cycles completed_at, double wall) {
  cm::core::Metrics& m = reg.record(label);
  const auto ev = static_cast<double>(events);
  const auto cycles = static_cast<double>(completed_at);
  m.put("host.wall_seconds", wall);
  m.put("host.events_per_sec", ev / wall);
  m.put("host.sim_cycles_per_sec", cycles / wall);
  m.put("host.repetitions", kReps);
  m.put("sim.events_executed", events);
  m.put("sim.completed_at", completed_at);
  std::printf("%-20s %10.3fs  %12.0f events/s  %12.0f cycles/s\n",
              label.c_str(), wall, ev / wall, cycles / wall);
}

void report(MetricsRegistry& reg, const std::string& label,
            const std::pair<RunStats, double>& t) {
  report(reg, label, t.first.events_executed, t.first.completed_at, t.second);
}

CountingConfig fig2_64() {
  CountingConfig cfg;
  cfg.scheme = Scheme{Mechanism::kMigration, false, false};
  cfg.requesters = 64;  // the paper's largest fig2 point: deepest queues
  cfg.think = 0;
  // Same shape as the paper's fig2 run but a 10x measurement window: the
  // harness times host work, and a ~100ms run is what it takes for wall
  // clocks to resolve a 10% difference reliably.
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
    arena.run(k.idx);
    push(k.t + 1 + rng.below(2 * kHoldGap));
  }
  while (!queue.empty()) arena.destroy(queue.pop_move().idx);
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
  std::printf("%-20s %11s  %21s  %21s\n", "record", "wall", "event rate",
              "cycle rate");

  report(reg, "fig2_64/calendar",
         best_of([] { return run_counting(fig2_64()); }));
  report(reg, "table1_2/calendar",
         best_of([] { return run_btree(table1_2()); }));
  report(reg, "table1_2_sm/calendar",
         best_of([] { return run_btree(table1_2_sm()); }));
  report(reg, "fig2_256/calendar",
         best_of([] { return run_counting(fig2_256()); }));

  const auto [cal, cal_wall] = best_of(hold_calendar);
  const auto [heap, heap_wall] = best_of(hold_heap);
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
  report(reg, "queue_hold/calendar", cal.fired, cal.last, cal_wall);
  report(reg, "queue_hold/heap", heap.fired, heap.last, heap_wall);
  std::printf("%-20s speedup calendar/heap: %.2fx\n", "queue_hold",
              heap_wall / cal_wall);

  if (!reg.write_json(out)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
