// Size-class freelists for coroutine frames.
//
// Every simulated thread, migration hop and method body is a coroutine
// (task.h), so each one allocates a frame. Taken from the global allocator,
// those frames would be the largest per-message host cost above the engine
// and the network. `FramePool` serves them from per-host-thread freelists
// instead: a frame is rounded up to a 64-byte size class, up to 2 KB; when
// it is destroyed its block goes onto the destroying thread's list for that
// class and is handed to the next frame of the class. A steady-state
// simulation therefore takes no frame from the global allocator at all.
// Frames larger than the biggest class go to `::operator new`.
//
// Threads. Each host thread owns its lists, so no lock is taken and nothing
// is shared. Every block is a separate `::operator new` allocation of its
// class's size, which leaves any thread free to keep or release it:
//  * a frame destroyed on a different host thread from the one that
//    created it joins the destroying thread's list;
//  * when a thread exits, its lists go back to the system;
//  * a frame freed after that — during static destruction, say — bypasses
//    the pool.
//
// AddressSanitizer. A block is poisoned while it sits in a freelist and
// unpoisoned when it is handed out, so ASan still reports a use of a
// destroyed frame (as use-after-poison) although the block never went back
// to malloc.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#define CM_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CM_SIM_ASAN 1
#endif
#endif
#ifndef CM_SIM_ASAN
#define CM_SIM_ASAN 0
#endif

#if CM_SIM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cm::sim {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;      // size-class step
  // Largest pooled frame. An operation's frame holds the awaiters of its
  // visits (core::Visit, about 220 bytes each), so a B-tree update's frame
  // under message passing takes about 1.1 KB.
  static constexpr std::size_t kMaxPooled = 2048;
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;

  [[nodiscard]] static void* allocate(std::size_t n) {
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t c = class_of(n);
    Lists& l = lists_;
    if (Block* b = l.head[c]) {
      unpoison(b, block_bytes(c));
      l.head[c] = b->next;
      return b;
    }
    return ::operator new(block_bytes(c));
  }

  /// `n` must be the size `allocate` was called with; coroutine frames
  /// always pass it back through the sized `operator delete`.
  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t c = class_of(n);
    Lists& l = lists_;
    if (l.state != State::kLive && !adopt_thread()) [[unlikely]] {
      ::operator delete(p, block_bytes(c));
      return;
    }
    l.head[c] = ::new (p) Block{l.head[c]};
    poison(p, block_bytes(c));
  }

 private:
  struct Block {
    Block* next;
  };
  enum class State : unsigned char {
    kFresh,  // nothing freed on this thread yet
    kLive,   // lists in use; released at thread exit
    kGone,   // released: frees bypass the lists from now on
  };
  struct Lists {
    Block* head[kClasses];
    State state;
  };
  static_assert(std::is_trivially_destructible_v<Lists>,
                "the lists must stay readable after thread-exit destructors");

  // Constructing one registers its destructor to run when its thread exits.
  struct ThreadExit {
    ThreadExit() = default;
    ThreadExit(const ThreadExit&) = delete;
    ThreadExit& operator=(const ThreadExit&) = delete;
    ~ThreadExit() { release_thread(); }
  };

  static constexpr std::size_t class_of(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / kGranule;
  }
  static constexpr std::size_t block_bytes(std::size_t c) noexcept {
    return (c + 1) * kGranule;
  }

  /// First free on this thread: arrange for its lists to be released at
  /// thread exit. False once they have been.
  static bool adopt_thread() noexcept {
    if (lists_.state == State::kGone) return false;
    // One per host thread and touched by no other: it exists only to run
    // the release when its thread exits.
    // simlint: allow SS001
    thread_local ThreadExit at_exit;
    lists_.state = State::kLive;
    return true;
  }

  /// Thread exit: free every parked block and stop taking new ones.
  static void release_thread() noexcept {
    Lists& l = lists_;
    l.state = State::kGone;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* b = l.head[c]) {
        unpoison(b, block_bytes(c));
        l.head[c] = b->next;
        ::operator delete(b, block_bytes(c));
      }
    }
  }

  static void poison([[maybe_unused]] void* p,
                     [[maybe_unused]] std::size_t n) noexcept {
#if CM_SIM_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void unpoison([[maybe_unused]] void* p,
                       [[maybe_unused]] std::size_t n) noexcept {
#if CM_SIM_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  // Per host thread by design: a thread pops and pushes only its own lists,
  // so two threads running simulations never share one, and no simulated
  // result depends on which block a frame gets. Zero-initialised and
  // trivially destructible, so the hot path needs no TLS guard and the
  // lists stay readable after the thread's destructors have run.
  // simlint: allow SS001
  inline static thread_local Lists lists_{};
};

}  // namespace cm::sim
