// Discrete-event simulation engine: a monotone cycle clock plus an event
// queue. Deterministic: events at equal timestamps run in label order.
//
// Every event is homed at a processor (or at kNoProc for setup/bookkeeping
// work) and carries a 64-bit label `(lane << 40) | count` (DESIGN.md §4).
// `lane` is the *creating* context's lane — lane 0 for setup, lane p+1
// while an event homed at processor p runs — and `count` is that lane's
// private counter. Labels are a pure function of the simulation's causal
// history. A program that only ever schedules from lane 0 (most unit tests)
// sees labels 0, 1, 2, ... — plain insertion order.
//
// An event is one of three kinds. A closure is stored in the event arena. A
// resume event (`resume_at_on`) carries a `Wake` (wake.h) in the queue
// record itself: either a coroutine handle, or a `Continuation`, the
// frame-free kind, which steps a protocol one event at a time from an
// object in a suspended coroutine's frame (the runtime's awaiters). The
// record's 64-bit payload tells the three apart by its two low bits: an
// arena index shifted left by two with bit 0 set, a Continuation's address
// (at least 8-byte aligned) with bit 1 set, or a frame address (at least
// 16-byte aligned) with both clear, so a coroutine resume costs one test.
// Every layer under src/ schedules resume events only: messages, the
// runtime's and directory's steps, deadlines, ticks and deferred copies.
// Closures remain for the drivers' two window markers, tests and bench
// rows. A pending wake is plain data that the engine cannot cancel, so
// every record one names must outlive the engine's last run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"
#include "sim/wake.h"

namespace cm::check {
class Checker;
}  // namespace cm::check

namespace cm::sim {

class Tracer;

/// The heart of the Proteus-style simulator. Client code schedules closures
/// at absolute or relative cycle times; `run()` drains the queue in
/// (time, label) order, advancing the clock as it goes. Closures live in a
/// slab arena behind a timing-wheel calendar queue (see event_queue.h)
/// whose slots each hold their first record inline, so most pops read one
/// 24-byte record and most pushes write one; resume events skip the arena.
///
/// An engine starts a cache line of its own, wherever its owner puts it:
/// placed after a Stack's config instead, the B-tree workloads' set-up ran
/// 7-15 % slower (perfbench pairs, 4-core host).
class alignas(64) Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Home processor of the executing event (kNoProc between events and for
  /// setup-scheduled work).
  [[nodiscard]] ProcId current_home() const noexcept { return current_home_; }

  /// Label lane of the executing context: 0 for setup, home + 1 while an
  /// event homed at a processor runs. Tracer msg ids and checker ids are
  /// minted from per-lane counters keyed on it.
  [[nodiscard]] unsigned current_lane() const noexcept {
    return current_home_ == kNoProc ? 0u
                                    : static_cast<unsigned>(current_home_) + 1u;
  }

  // -- Clock and scheduling ------------------------------------------------

  /// Current simulated time in cycles.
  [[nodiscard]] Cycles now() const noexcept { return now_; }

  /// Schedule `fn` (any void() callable; captures stay inline in the event
  /// arena when they fit) to run at absolute time `t`, homed at the calling
  /// context's processor. A correct caller never passes `t < now()` — a
  /// zero-latency round-trip lands exactly on `now()`, never before it. A
  /// past timestamp is a causality bug in the scheduling layer: the engine
  /// counts it in `clamped_events()` (exported as the `sim.clamped_events`
  /// metric) and clamps it to `now()`; Debug builds then assert, with the
  /// clamp distance reported on stderr (see `past_schedule_assert`).
  template <class F>
  void at(Cycles t, F&& fn) {
    schedule(t, current_home_, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `d` cycles from now.
  template <class F>
  void after(Cycles d, F&& fn) {
    at(now_ + d, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute time `t`, homed at processor `home`: events
  /// it creates take `home`'s lane.
  template <class F>
  void at_on(ProcId home, Cycles t, F&& fn) {
    schedule(t, home, std::forward<F>(fn));
  }

  /// Schedule `fn` at `d` cycles from now, homed at `home`.
  template <class F>
  void after_on(ProcId home, Cycles d, F&& fn) {
    at_on(home, now_ + d, std::forward<F>(fn));
  }

  /// Wake `w` (resume a coroutine or run a Continuation) at absolute time
  /// `t`, homed at `home`. The same label and clamp contract as
  /// `at_on(home, t, [w] { w(); })`, but the wake rides in the queue record,
  /// so the event takes no arena slot.
  void resume_at_on(ProcId home, Cycles t, Wake w) {
    enqueue(t, home, w.bits_);
  }

  // -- Run loops -----------------------------------------------------------

  /// Run until the event queue is empty.
  void run();

  /// Run events with timestamp <= `t`; afterwards `now() == t` if the queue
  /// drained, else `now()` is the last executed event's time (the clock
  /// never advances past events that are still pending).
  void run_until(Cycles t);

  /// Run at most `max_events` further events (safety valve for tests).
  void run_bounded(std::size_t max_events);

  // -- Introspection -------------------------------------------------------

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t events_executed() const noexcept {
    return executed_;
  }

  /// The same-simulation witness: a running hash of every executed event's
  /// time, label and home, blind to its kind, so a traced, checked or
  /// refactored run can be compared with the plain run (DESIGN.md §4).
  [[nodiscard]] std::uint64_t event_hash() const noexcept {
    return event_hash_;
  }

  /// Events whose requested time lay strictly in the past (clamp distance
  /// > 0) and were clamped to `now`. Nonzero means a layer scheduled
  /// backwards in time — a causality bug; Debug builds assert at the
  /// offending call site (after counting, so the clamp path is exercised in
  /// every build).
  [[nodiscard]] std::uint64_t clamped_events() const noexcept {
    return clamped_;
  }

  /// Event tracing is opt-in: every instrumented layer reaches its tracer
  /// through the engine it already holds, so with no tracer installed (the
  /// default) instrumentation is a null-pointer test and nothing else.
  void set_tracer(Tracer* t) noexcept { tracer_ = t; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  /// Invariant checking follows the same opt-in pattern as tracing: a
  /// null-by-default pointer every instrumented layer reaches through the
  /// engine, so checker-off runs pay one pointer test per site and stay
  /// bit-identical to unchecked builds.
  void set_checker(check::Checker* c) noexcept { checker_ = c; }
  [[nodiscard]] check::Checker* checker() const noexcept { return checker_; }

 private:
  static constexpr unsigned kLaneShift = 40;  // 2^40 events per lane
  static constexpr std::uint64_t kClosureTag = Wake::kClosureTag;
  static constexpr std::uint64_t kTagMask = Wake::kTagMask;

  /// Debug-only half of the past-schedule diagnostic: prints the clamp
  /// distance to stderr, then asserts. The caller increments `clamped_`
  /// first, so Release clamp accounting is exercised in Debug too.
  static void past_schedule_assert(Cycles distance) noexcept;

  template <class F>
  void schedule(Cycles t, ProcId home, F&& fn) {
    const std::uint64_t idx = arena_.emplace(std::forward<F>(fn));
    enqueue(t, home, (idx << 2) | kClosureTag);
  }

  void enqueue(Cycles t, ProcId home, std::uint64_t payload) {
    if (t < now_) [[unlikely]] {
      ++clamped_;
      past_schedule_assert(now_ - t);
      t = now_;
    }
    const unsigned lane = current_lane();
    if (lane >= lane_cnt_.size()) [[unlikely]] lane_cnt_.resize(lane + 1, 0);
    const std::uint64_t label =
        (std::uint64_t{lane} << kLaneShift) | lane_cnt_[lane]++;
    queue_.push(t, label, payload, static_cast<std::uint32_t>(home));
  }

  void step();

  CalendarQueue queue_;
  EventArena arena_;
  Cycles now_ = 0;
  ProcId current_home_ = kNoProc;
  std::size_t executed_ = 0;
  std::uint64_t event_hash_ = 0;  // folded by step(); see event_hash()
  std::uint64_t clamped_ = 0;
  std::vector<std::uint64_t> lane_cnt_{0};  // lanes grow on first use
  Tracer* tracer_ = nullptr;
  check::Checker* checker_ = nullptr;
};

}  // namespace cm::sim
