#include "sim/engine.h"

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdio>

namespace cm::sim {

Engine::~Engine() {
  // Destroy (without running) any closures still queued in the arena. A
  // pending resume event is dropped: its coroutine is never resumed and its
  // Continuation never runs.
  while (!queue_.empty()) {
    const std::uint64_t payload = queue_.pop_move().payload;
    if ((payload & kClosureTag) != 0) {
      arena_.destroy(static_cast<std::uint32_t>(payload >> 2));
    }
  }
}

void Engine::past_schedule_assert([[maybe_unused]] Cycles distance) noexcept {
#ifndef NDEBUG
  std::fprintf(stderr,
               "Engine: event scheduled %llu cycle(s) in the past (clamped, "
               "counted in sim.clamped_events)\n",
               static_cast<unsigned long long>(distance));
  assert(!"Engine: event scheduled in the past — clamp distance on stderr");
#endif
}

void Engine::step() {
  // Pop before invoking so the handler may schedule new events freely. The
  // pop copies the record out of the queue; a closure stays in its arena
  // slot until it has run.
  const EventKey k = queue_.pop_move();
  now_ = k.t;
  current_home_ = static_cast<ProcId>(k.home);
  ++executed_;
  // One multiply per event. The label's count and the home sit above the
  // time's bits before the mix, and the rotation carries high bits down.
  const std::uint64_t x = k.t ^ std::rotl(k.seq, 24) ^
                          (std::uint64_t{k.home} << 48);
  event_hash_ = std::rotl((event_hash_ ^ x) * 0x9e3779b97f4a7c15ULL, 29);
  if ((k.payload & kTagMask) == 0) {
    void* const frame = reinterpret_cast<void*>(k.payload);
    std::coroutine_handle<>::from_address(frame).resume();
  } else if ((k.payload & kClosureTag) != 0) {
    arena_.run(static_cast<std::uint32_t>(k.payload >> 2));
  } else {
    auto* const c = reinterpret_cast<Continuation*>(k.payload & ~kTagMask);
    c->run(c);
  }
}

void Engine::run() {
  while (!queue_.empty()) step();
  current_home_ = kNoProc;
}

void Engine::run_until(Cycles t) {
  while (!queue_.empty() && queue_.min_time() <= t) step();
  current_home_ = kNoProc;
  // Advance the clock to `t` only when nothing is left to execute: with
  // events still pending past `t`, the clock must stay at the last executed
  // event's time so it never runs ahead of work the queue still owes.
  if (queue_.empty() && now_ < t) now_ = t;
}

void Engine::run_bounded(std::size_t max_events) {
  for (std::size_t i = 0; i < max_events && !queue_.empty(); ++i) step();
  current_home_ = kNoProc;
}

}  // namespace cm::sim
