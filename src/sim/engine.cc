#include "sim/engine.h"

#include <cassert>
#include <cstdio>

namespace cm::sim {

Engine::~Engine() {
  // Destroy (without running) any callbacks still queued in the arena.
  while (!queue_.empty()) arena_.destroy(queue_.pop_move().idx);
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
  // pop moves a 24-byte key out of the queue; the callback stays in its
  // arena slot until it has run.
  const EventKey k = queue_.pop_move();
  now_ = k.t;
  current_home_ = static_cast<ProcId>(k.home);
  ++executed_;
  arena_.run(k.idx);
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
