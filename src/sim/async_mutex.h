// FIFO mutex for simulated threads. Used for node-level locking in the
// message-passing (RPC / computation-migration) runtime, where a lock
// co-locates with its object: acquiring it is a local operation at the
// object's home, so the simulation cost is just blocking (the coherence-level
// SpinLock in shmem/sync.h is its shared-memory counterpart and does generate
// traffic).
//
// Host representation: a mutex allocates nothing, constructed, contended or
// handed off. Its FIFO is an intrusive list threaded through the lock
// awaiters, and each awaiter lives in the frame of the coroutine it
// suspends, the same in-frame waiter pattern as the coherence layer's
// transactions (shmem/coherent_memory.h). The awaiter is trivially
// destructible, so `co_await m.lock()` on the prvalue is safe from the GCC
// 12.2 double-destruction bug described at `suspend_to` (task.h).
#pragma once

#include <coroutine>
#include <cstddef>
#include <stdexcept>
#include <type_traits>

namespace cm::sim {

class AsyncMutex {
 public:
  /// One `co_await lock()`: a node of the mutex's FIFO while it waits.
  struct [[nodiscard]] Awaiter {
    AsyncMutex* m;
    std::coroutine_handle<> waiter = nullptr;
    Awaiter* next = nullptr;

    bool await_ready() noexcept {
      if (!m->held_) {
        m->held_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      waiter = h;
      if (m->tail_ != nullptr) {
        m->tail_->next = this;
      } else {
        m->head_ = this;
      }
      m->tail_ = this;
    }
    void await_resume() noexcept {}
  };
  static_assert(std::is_trivially_destructible_v<Awaiter>);

  AsyncMutex() = default;
  AsyncMutex(const AsyncMutex&) = delete;
  AsyncMutex& operator=(const AsyncMutex&) = delete;

  /// Awaitable acquire; suspends FIFO when contended.
  Awaiter lock() noexcept { return Awaiter{this}; }

  /// Release; if a waiter exists, ownership transfers to it and it resumes
  /// immediately (same simulated instant). Unlocking a free mutex throws
  /// std::logic_error in every build type, before any state change; the
  /// callers are coroutines, so the error reaches their awaiters.
  void unlock() {
    if (!held_) {
      throw std::logic_error("AsyncMutex::unlock: the mutex is not held");
    }
    Awaiter* const front = head_;
    if (front == nullptr) {
      held_ = false;
      return;
    }
    // Unlink before resuming: the resumed frame owns the node and may end.
    head_ = front->next;
    if (head_ == nullptr) tail_ = nullptr;
    const std::coroutine_handle<> h = front->waiter;
    h.resume();  // held_ stays true: handed off
  }

  [[nodiscard]] bool held() const noexcept { return held_; }
  [[nodiscard]] std::size_t waiters() const noexcept {
    std::size_t n = 0;
    for (const Awaiter* a = head_; a != nullptr; a = a->next) ++n;
    return n;
  }

 private:
  bool held_ = false;
  Awaiter* head_ = nullptr;  // FIFO of suspended lockers
  Awaiter* tail_ = nullptr;
};

}  // namespace cm::sim
