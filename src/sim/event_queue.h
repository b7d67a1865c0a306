// Event-queue implementations for the simulation engine.
//
// Both implement one ordering contract — lexicographic (t, seq): earlier
// timestamps first, then smaller labels (FIFO by insertion sequence for
// events scheduled from one lane). That contract is the determinism
// invariant every experiment in this repo leans on.
//
// `CalendarQueue` + `EventArena` are the engine's queue: a two-level ladder
// queue over 24-byte POD keys (the callback lives in a slab arena and never
// moves) specialised for the engine's near-monotone timestamps, replacing
// both the O(log n) heap churn and the per-event `std::function` heap
// allocation.
//
// `HeapEventQueue` is the classic binary-heap priority queue over full
// event records. The engine does not use it: it is the reference that
// tests/queue_conformance_test.cc checks the engine against, event for
// event, and the baseline bench/host_perf measures the calendar queue
// against. Unlike `std::priority_queue` — whose `top()` is const and
// therefore cannot hand out its payload without a copy or a const_cast — it
// is built directly on `std::push_heap`/`std::pop_heap` and exposes a real
// `pop_move()`: the heap algorithms rotate the minimum element to the back
// of the vector, from where it is legitimately moved out.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace cm::sim {

/// A scheduled closure with its (time, label) ordering key.
struct HeapEvent {
  Cycles t;
  std::uint64_t seq;
  std::function<void()> fn;
};

class HeapEventQueue {
 public:
  void push(Cycles t, std::uint64_t seq, std::function<void()> fn) {
    heap_.push_back(HeapEvent{t, seq, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Earliest (t, seq) event's timestamp; undefined when empty.
  [[nodiscard]] Cycles min_time() const noexcept { return heap_.front().t; }

  /// Remove and return the earliest (t, seq) event. `pop_heap` swaps it to
  /// the back of the vector, so the move-out is from a mutable element —
  /// no const_cast, no container invariant at risk.
  [[nodiscard]] HeapEvent pop_move() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    HeapEvent ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  // Max-heap comparator inverted into a min-heap on (t, seq).
  struct Later {
    bool operator()(const HeapEvent& a, const HeapEvent& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::vector<HeapEvent> heap_;
};

/// Slab allocator for event callbacks. Each record is one 64-byte slot: an
/// op thunk, a freelist link, and 48 bytes of inline storage that absorbs
/// the capture list of every hot-path lambda in the simulator (callables
/// that do not fit fall back to one heap allocation, same as the
/// `std::function` they replace). Records are addressed by 32-bit index;
/// slots live in fixed-size chunks so a record's address never moves even
/// while its callback is executing and scheduling new events (which may
/// grow the arena). Freed slots are recycled LIFO, so a steady-state
/// simulation stops allocating entirely.
class EventArena {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Store `fn` in a recycled (or fresh) slot and return its index.
  template <class F>
  std::uint32_t emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t idx = allocate();
    Record& r = record(idx);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(r.storage)) Fn(std::forward<F>(fn));
      r.op = &inline_op<Fn>;
    } else {
      ::new (static_cast<void*>(r.storage)) Fn*(new Fn(std::forward<F>(fn)));
      r.op = &boxed_op<Fn>;
    }
    return idx;
  }

  /// Invoke the callback at `idx`, then destroy it and recycle the slot.
  /// The slot is recycled even if the callback throws; it is NOT recycled
  /// until the callback returns, so events the callback schedules can never
  /// alias the slot they are being scheduled from.
  void run(std::uint32_t idx) {
    Record& r = record(idx);
    const Recycle guard{this, idx};
    r.op(&r, /*invoke=*/true);
  }

  /// Destroy the callback at `idx` without invoking it (engine teardown
  /// with events still pending) and recycle the slot.
  void destroy(std::uint32_t idx) {
    Record& r = record(idx);
    const Recycle guard{this, idx};
    r.op(&r, /*invoke=*/false);
  }

  /// Slots currently holding a live callback (queue contents, essentially).
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

 private:
  struct Record {
    void (*op)(Record*, bool invoke);
    std::uint32_t next_free;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
  };
  static_assert(sizeof(Record) == 64, "one event record per half cache pair");

  // Chunked storage: stable addresses, 32-bit indexing.
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 records per chunk
  static constexpr std::uint32_t kChunkRecords = 1u << kChunkShift;
  static constexpr std::uint32_t kNoFree =
      std::numeric_limits<std::uint32_t>::max();

  template <class Fn>
  static void inline_op(Record* r, bool invoke) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(r->storage));
    struct Destroy {
      Fn* f;
      ~Destroy() { f->~Fn(); }
    } d{f};
    if (invoke) (*f)();
  }

  template <class Fn>
  static void boxed_op(Record* r, bool invoke) {
    Fn* f = *std::launder(reinterpret_cast<Fn**>(r->storage));
    const std::unique_ptr<Fn> own(f);
    if (invoke) (*f)();
  }

  struct Recycle {
    EventArena* a;
    std::uint32_t idx;
    ~Recycle() { a->release(idx); }
  };

  [[nodiscard]] Record& record(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkRecords - 1)];
  }

  [[nodiscard]] std::uint32_t allocate() {
    ++live_;
    if (free_head_ != kNoFree) {
      const std::uint32_t idx = free_head_;
      free_head_ = record(idx).next_free;
      return idx;
    }
    if (bump_ == chunks_.size() * kChunkRecords) {
      chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
    }
    return bump_++;
  }

  void release(std::uint32_t idx) noexcept {
    record(idx).next_free = free_head_;
    free_head_ = idx;
    --live_;
  }

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::uint32_t free_head_ = kNoFree;
  std::uint32_t bump_ = 0;  // slots handed out so far (never shrinks)
  std::size_t live_ = 0;
};

/// Ordering key for an arena-resident event: 24 bytes of POD, cheap to
/// shuffle during sorts while the callback stays put in its slab slot. The
/// `home` field (the simulated processor the event is homed at) rides in
/// what used to be padding, so the key stays 24 bytes.
struct EventKey {
  Cycles t;
  std::uint64_t seq;
  std::uint32_t idx;
  std::uint32_t home;
};
static_assert(sizeof(EventKey) == 24, "home must fit in the old padding");

/// Two-level calendar/ladder queue specialised for a discrete-event engine
/// whose timestamps are near-monotone (events are overwhelmingly scheduled
/// a short, bounded distance into the future).
///
///  * `near_` — the current "rung": every pending event with t <= horizon_,
///    kept sorted descending by (t, seq) so the minimum pops from the back
///    in O(1). Inserts below the horizon binary-search their slot; because
///    new events carry the largest seq so far, a same-cycle insert lands at
///    (or next to) the back and moves almost nothing.
///  * `far_` — everything past the horizon, completely unsorted: insertion
///    is O(1) and no comparison work is done for events that are not about
///    to execute.
///
/// When the rung drains, the queue re-spills: it picks a fresh horizon so
/// that roughly `kSpillTarget` of the far events fall below it (adapting to
/// whatever timestamp density the workload exhibits), partitions `far_`
/// once, and sorts the new rung. Each event is therefore touched by at most
/// one partition pass plus one O(log r) sort of a small rung — and the
/// (t, seq) sort makes the pop order *exactly* the total order a binary heap
/// produces (HeapEventQueue, the reference the conformance tests compare
/// against).
class CalendarQueue {
 public:
  void push(Cycles t, std::uint64_t seq, std::uint32_t idx,
            std::uint32_t home) {
    ++size_;
    if (t <= horizon_) {
      const EventKey k{t, seq, idx, home};
      near_.insert(std::upper_bound(near_.begin(), near_.end(), k, Greater{}),
                   k);
    } else {
      if (t < far_min_) far_min_ = t;
      if (t > far_max_) far_max_ = t;
      far_.push_back(EventKey{t, seq, idx, home});
    }
  }

  /// Earliest pending timestamp; undefined when empty. May re-spill (hence
  /// non-const), but never changes the pop order.
  [[nodiscard]] Cycles min_time() {
    if (near_.empty()) refill();
    return near_.back().t;
  }

  /// Remove and return the earliest (t, seq) key.
  [[nodiscard]] EventKey pop_move() {
    if (near_.empty()) refill();
    const EventKey k = near_.back();
    near_.pop_back();
    --size_;
    return k;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  // Strictly-descending order; (t, seq) pairs are unique by construction.
  struct Greater {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kSpillTarget = 64;

  void refill() {
    assert(!far_.empty() && "pop/min on an empty CalendarQueue");
    if (far_.size() <= 2 * kSpillTarget) {
      near_.swap(far_);
      far_.clear();
      std::sort(near_.begin(), near_.end(), Greater{});
      horizon_ = near_.front().t;  // max t now owned by the rung
      far_min_ = std::numeric_limits<Cycles>::max();
      far_max_ = 0;
      return;
    }
    // Aim the new horizon so ~kSpillTarget events spill: assume timestamps
    // spread evenly over [far_min_, far_max_] and take a proportional slice
    // of the span. Dense clusters just spill a bigger rung once; the rung
    // is still sorted exactly, so only speed — never order — is heuristic.
    const Cycles span = far_max_ - far_min_;
    const Cycles width =
        std::max<Cycles>(1, span / (far_.size() / kSpillTarget));
    const Cycles h =
        far_max_ - far_min_ < width ? far_max_ : far_min_ + width;
    Cycles nmin = std::numeric_limits<Cycles>::max();
    Cycles nmax = 0;
    std::size_t keep = 0;
    for (EventKey& k : far_) {
      if (k.t <= h) {
        near_.push_back(k);
      } else {
        if (k.t < nmin) nmin = k.t;
        if (k.t > nmax) nmax = k.t;
        far_[keep++] = k;
      }
    }
    far_.resize(keep);
    std::sort(near_.begin(), near_.end(), Greater{});
    horizon_ = h;
    far_min_ = nmin;
    far_max_ = nmax;
  }

  std::vector<EventKey> near_;  // sorted descending (t, seq); pop from back
  std::vector<EventKey> far_;   // unsorted overflow, all t > horizon_
  Cycles horizon_ = 0;
  Cycles far_min_ = std::numeric_limits<Cycles>::max();
  Cycles far_max_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cm::sim
