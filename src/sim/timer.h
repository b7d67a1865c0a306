// Cancellable one-shot timer over the event engine. The engine itself cannot
// unschedule an event, so the timer wraps each scheduled closure in a
// generation check: `cancel()` (or a newer `arm()`) bumps the generation and
// the stale event becomes a no-op when it fires. Used by the reliable
// transport for ack timeouts, where almost every armed timer is cancelled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "sim/engine.h"
#include "sim/types.h"

namespace cm::sim {

class Timer {
 public:
  explicit Timer(Engine& engine)
      : engine_(&engine), ctl_(std::make_shared<Ctl>()) {}

  /// Destroying a Timer cancels it; a moved-from Timer owns no control
  /// block and cancels nothing.
  ~Timer() {
    if (ctl_) cancel();
  }
  Timer(Timer&&) noexcept = default;

  /// Arm the timer: `fn` runs `d` cycles from now unless `cancel()`, a
  /// newer `arm()` or the Timer's destruction intervenes first. The
  /// scheduled event holds the control block alive, so a Timer destroyed
  /// while armed touches no freed memory (Timer.SafeToDestroyWhileArmed).
  void arm(Cycles d, std::function<void()> fn) {
    const std::uint64_t gen = ++ctl_->gen;
    ctl_->armed = true;
    engine_->after(d, [ctl = ctl_, gen, fn = std::move(fn)] {
      if (ctl->gen == gen && ctl->armed) {
        ctl->armed = false;
        fn();
      }
    });
  }

  /// Forget any pending arming; the already-queued engine event is defused.
  void cancel() noexcept {
    ctl_->armed = false;
    ++ctl_->gen;
  }

  [[nodiscard]] bool armed() const noexcept { return ctl_->armed; }

 private:
  struct Ctl {
    std::uint64_t gen = 0;
    bool armed = false;
  };

  Engine* engine_;
  std::shared_ptr<Ctl> ctl_;
};

}  // namespace cm::sim
