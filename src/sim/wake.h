// What a suspended computation is woken as: a coroutine, or a frame-free
// `Continuation`. The engine's resume events carry a `Wake` (engine.h), and
// a `Task`'s continuation, whom it completes into, is one too (task.h).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

namespace cm::sim {

class Engine;

/// The frame-free kind of wake: an object, typically an awaiter in a
/// suspended coroutine's frame, whose `run` is called with the object
/// itself. Each call runs one step of the object's protocol and either
/// schedules its next wake or completes; swapping `run` between steps is
/// how the object keeps its place.
struct Continuation {
  void (*run)(Continuation*) = nullptr;
};

/// A suspended coroutine or a Continuation. Coroutine handles convert
/// implicitly, so every `resume_at_on`, `Machine::resume_on` and
/// `Network::send` caller that holds one passes it as it is. A null
/// coroutine handle makes a wake that `transfer` ignores.
class Wake {
 public:
  template <class P>
  Wake(std::coroutine_handle<P> h) noexcept  // NOLINT: implicit by design
      : bits_(reinterpret_cast<std::uintptr_t>(h.address())) {
    assert((bits_ & kTagMask) == 0 && "coroutine frames are aligned");
  }
  Wake(Continuation* c) noexcept  // NOLINT: implicit by design
      : bits_(reinterpret_cast<std::uintptr_t>(c) | kContinuationTag) {}

  /// Resume the coroutine or run the continuation, as its event would.
  void operator()() const {
    if ((bits_ & kContinuationTag) == 0) {
      std::coroutine_handle<>::from_address(frame()).resume();
    } else {
      Continuation* const c = continuation();
      c->run(c);
    }
  }

  /// Complete into this wake from a coroutine's final suspension (return
  /// the result from `await_suspend`): a coroutine is the handle to
  /// transfer to symmetrically; a Continuation runs its next step inline,
  /// in the same event, and nothing is transferred to. The step may free
  /// the completing coroutine's frame, so the caller must not touch it
  /// after this returns.
  [[nodiscard]] std::coroutine_handle<> transfer() const noexcept {
    if ((bits_ & kContinuationTag) == 0) {
      if (bits_ == 0) return std::noop_coroutine();
      return std::coroutine_handle<>::from_address(frame());
    }
    Continuation* const c = continuation();
    c->run(c);
    return std::noop_coroutine();
  }

 private:
  friend class Engine;
  static constexpr std::uint64_t kClosureTag = 1;  // engine-only
  static constexpr std::uint64_t kContinuationTag = 2;
  static constexpr std::uint64_t kTagMask = kClosureTag | kContinuationTag;

  [[nodiscard]] void* frame() const noexcept {
    return reinterpret_cast<void*>(bits_);
  }
  [[nodiscard]] Continuation* continuation() const noexcept {
    return reinterpret_cast<Continuation*>(bits_ & ~kTagMask);
  }

  std::uint64_t bits_;
};
static_assert(alignof(Continuation) >= 4, "two tag bits stay free");

}  // namespace cm::sim
