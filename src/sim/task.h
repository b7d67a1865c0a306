// Coroutine plumbing for simulated threads.
//
// A simulated thread (a Prelude lightweight thread in the paper) is a C++20
// coroutine. The coroutine frame holds exactly the live variables across
// suspension points — it *is* the activation record, which is what makes this
// a faithful embedding of activation-frame migration: migrating a frame in
// the simulation re-binds the frame's processor and charges the cost of
// shipping its live words, while the host-side frame object stays put.
//
// `Task<T>` is a lazy awaitable coroutine with symmetric transfer.
// `Detached` is a fire-and-forget root used to launch top-level threads.
// Both take their frames from `FramePool` (frame_pool.h) rather than the
// global allocator. `Started<T>` lets a trivially destructible awaiter run a
// Task it starts itself.
// `suspend_to(f)` is the escape hatch: suspends the current coroutine and
// hands its handle to `f`, which arranges resumption via the event engine.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.h"

namespace cm::sim {

namespace detail {

/// Frame allocation for both coroutine types: the compiler finds these in
/// the promise type and passes each of them the frame's size.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

template <class T>
struct ValueStore {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
  T take() { return std::move(*value); }
};

template <>
struct ValueStore<void> {
  void return_void() noexcept {}
  void take() noexcept {}
};

}  // namespace detail

template <class T>
class Started;

/// Lazy awaitable coroutine. Created suspended; starts when awaited (or when
/// `start()` is called by a root). On completion, control transfers
/// symmetrically to the awaiter. Exceptions propagate to the awaiter.
template <class T = void>
class [[nodiscard]] Task {
 public:
  using value_type = T;

  struct promise_type : detail::ValueStore<T>, detail::PooledFrame {
    std::coroutine_handle<> continuation;  // who awaits us (may be null)
    std::exception_ptr exception;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return h.promise().take();
      }
    };
    return Awaiter{handle_};
  }

  /// For roots: begin executing without an awaiter. The task runs until its
  /// first suspension; the caller keeps ownership and must keep the Task
  /// alive until done.
  void start() {
    assert(handle_ && !handle_.done());
    handle_.resume();
  }

 private:
  friend class Started<T>;
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// A Task run by an awaiter that must stay trivially destructible (see
/// `suspend_to`): the awaiter holds the task's handle instead of the Task.
/// `start` takes the frame over and makes the awaiting coroutine its
/// continuation; `take`, called once the task has finished, yields its
/// value or rethrows its exception and frees the frame. A frame that was
/// started must be taken, or it leaks.
template <class T>
class Started {
 public:
  /// Own `t`'s frame, to run on behalf of `caller`; returns the handle that
  /// starts it (return it from `await_suspend`, or resume it).
  std::coroutine_handle<> start(Task<T> t,
                                std::coroutine_handle<> caller) noexcept {
    h_ = std::exchange(t.handle_, {});
    h_.promise().continuation = caller;
    return h_;
  }

  /// Whether `start` has handed a frame over that `take` has not freed.
  [[nodiscard]] bool started() const noexcept { return h_ != nullptr; }

  /// The finished task's value, or its exception rethrown.
  T take() {
    struct Free {
      std::coroutine_handle<typename Task<T>::promise_type> h;
      ~Free() { h.destroy(); }
    } const frame{std::exchange(h_, {})};
    auto& promise = frame.h.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
    return promise.take();
  }

 private:
  std::coroutine_handle<typename Task<T>::promise_type> h_;
};

/// Fire-and-forget root coroutine; self-destroys on completion.
struct Detached {
  struct promise_type : detail::PooledFrame {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }  // roots must not throw
  };
};

/// Run a Task<void> to completion as an independent simulated thread.
/// The wrapper coroutine owns the task; both frames free themselves when the
/// task finishes.
inline Detached detach(Task<void> t) { co_await std::move(t); }

/// Suspend the current coroutine and pass its handle to `f`. `f` must arrange
/// for the handle to be resumed exactly once (typically via Engine::at).
///
/// CAUTION: if `f` owns non-trivially-destructible state (shared_ptr and
/// friends), bind the result to a named local and await that:
///     auto aw = suspend_to(...); co_await aw;
/// GCC 12.2 (the baked-in toolchain) runs the destructor of a *prvalue*
/// co_await operand twice, which silently corrupts reference counts.
/// Trivially-destructible captures (pointers, ints, handles) are unaffected.
template <class F>
auto suspend_to(F f) {
  struct Awaiter {
    F fn;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { fn(h); }
    void await_resume() const noexcept {}
  };
  return Awaiter{std::move(f)};
}

}  // namespace cm::sim
