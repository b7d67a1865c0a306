// Event-queue implementations for the simulation engine.
//
// Both implement one ordering contract — lexicographic (t, seq): earlier
// timestamps first, then smaller labels (FIFO by insertion sequence for
// events scheduled from one lane). That contract is the determinism
// invariant every experiment in this repo leans on.
//
// `CalendarQueue` is the engine's queue: a timing wheel of 4,096 one-cycle
// slots, each holding its first 24-byte POD record inline with later ones
// chained from it, plus a binary-heap overflow for events further ahead.
// A record's 64-bit payload is opaque to the queue; the engine stores
// either an `EventArena` index (a closure, which lives in a slab slot and
// never moves) or a bare coroutine frame address (a resume event, which
// needs no slot at all) there.
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
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
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

/// One pending event as the calendar queue hands it out, and as its
/// overflow heap holds it: 32 bytes of POD. The queue orders on (t, seq) and
/// never looks inside `payload`; the engine stores either a tagged
/// `EventArena` index or a coroutine frame address there (engine.h). `home`
/// is the simulated processor the event is homed at.
struct EventKey {
  Cycles t;
  std::uint64_t seq;
  std::uint64_t payload;
  std::uint32_t home;
};
static_assert(sizeof(EventKey) == 32, "two queue records per cache line");

/// Timing-wheel event queue (Brown's calendar queue with one-cycle days, or
/// a Varghese–Lauck hashed wheel) specialised for a discrete-event engine
/// whose events are overwhelmingly scheduled a short distance ahead.
///
///  * The wheel: `kSlots` one-cycle slots covering [last pop, last pop +
///    kSlots), so slot `t mod kSlots` holds events at exactly time `t`. A
///    64-word occupancy bitmap and one summary word find the next
///    non-empty slot with two count-trailing-zeros.
///  * A slot holds its first (smallest-label) record inline: label,
///    payload, home and a chain link, 24 bytes. The record's time is
///    implied by the slot and the last popped time, so a pop reads that one
///    record. Most pushes land in an empty slot and write only it.
///  * The second and later records of one time chain from the slot's first
///    record in ascending label order. They live in one pooled vector,
///    recycled through a LIFO freelist, so a steady-state simulation stops
///    allocating. A per-slot tail index makes an arrival larger than every
///    label in the chain an O(1) append — the common case, since each
///    lane's labels only grow; an arrival smaller than the slot's first
///    takes the slot's place and moves the old first to the chain's head;
///    any other walks the chain from the first.
///  * The overflow: events `kSlots` or more cycles ahead go to a binary
///    heap over (t, seq), whose earliest time is kept in a member. They
///    stay there until popped, so one timestamp may have events in both
///    structures; each pop compares that word with the wheel's first time
///    and reads the two labels only on a tie, which keeps the pop order
///    *exactly* the (t, seq) order a binary heap produces (HeapEventQueue,
///    the reference the conformance tests compare against).
class CalendarQueue {
 public:
  static constexpr std::uint32_t kSlots = 4096;

  CalendarQueue() : wheel_(spare_.exchange(nullptr)) {
    if (wheel_ == nullptr) wheel_ = new Wheel;  // not value-initialised
  }
  ~CalendarQueue() {
    Wheel* none = nullptr;
    if (!spare_.compare_exchange_strong(none, wheel_)) delete wheel_;
  }
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  /// Enqueue `payload` at (t, seq). `t` must not precede the last popped
  /// time: the wheel files `t` under `t mod kSlots`, so an earlier event
  /// would pop out of order. Such a push throws std::invalid_argument in
  /// every build type (the engine never makes one: it clamps to `now()`).
  void push(Cycles t, std::uint64_t seq, std::uint64_t payload,
            std::uint32_t home) {
    if (t < base_) [[unlikely]] {
      throw std::invalid_argument(
          "CalendarQueue: push before the last popped time");
    }
    ++size_;
    if (t - base_ >= kSlots) {
      overflow_.push_back(EventKey{t, seq, payload, home});
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
      overflow_min_ = overflow_.front().t;
      return;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(t) & kMask;
    std::uint64_t& word = occupied_[slot >> 6];
    const std::uint64_t bit = 1ull << (slot & 63);
    if ((word & bit) == 0) {
      word |= bit;
      summary_ |= 1ull << (slot >> 6);
      wheel_->first[slot] = Record{seq, payload, home, kNil};
      return;
    }
    chain(slot, seq, payload, home);
  }

  /// Earliest pending timestamp; undefined when empty.
  [[nodiscard]] Cycles min_time() const noexcept {
    const std::uint32_t slot = first_slot();
    return slot == kNil ? overflow_min_
                        : std::min(slot_time(slot), overflow_min_);
  }

  /// Remove and return the earliest (t, seq) record.
  [[nodiscard]] EventKey pop_move() {
    assert(size_ > 0 && "pop on an empty CalendarQueue");
    --size_;
    const std::uint32_t slot = first_slot();
    if (slot != kNil) {
      const Cycles t = slot_time(slot);
      if (wheel_next(slot, t)) return pop_slot(slot, t);
    }
    return pop_overflow();
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kMask = kSlots - 1;
  static constexpr std::uint32_t kWords = kSlots / 64;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
  static_assert((kSlots & kMask) == 0 && kWords <= 64,
                "a power-of-two wheel whose bitmap one summary word covers");

  /// A wheel record: a slot's first, inline, or a chained one in `pool_`.
  /// `next` is the pool index of the next record of the same time (kNil
  /// ends the chain) and, for a free pool record, the next free one.
  struct Record {
    std::uint64_t seq;
    std::uint64_t payload;
    std::uint32_t home;
    std::uint32_t next;
  };
  static_assert(sizeof(Record) == 24, "a slot's first record is 24 bytes");

  /// Each slot's first record, and the pool index of its chain's last. Never
  /// value-initialised: the occupancy bitmap says which first records are
  /// live, and a tail index is read only while its slot has a chain. A
  /// destroyed queue parks its wheel in `spare_` for the next queue, so a
  /// program that builds an engine per run does not allocate the 112 KB and
  /// fault its pages in again for each run.
  struct Wheel {
    Record first[kSlots];
    std::uint32_t tail[kSlots];
  };

  // Max-heap comparator inverted into a min-heap on (t, seq); (t, seq)
  // pairs are unique by construction.
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// The first non-empty slot at or after the last pop, wrapping around
  /// the wheel; kNil when the wheel is empty.
  [[nodiscard]] std::uint32_t first_slot() const noexcept {
    const std::uint32_t from = static_cast<std::uint32_t>(base_) & kMask;
    const std::uint32_t w = from >> 6;
    if (const std::uint64_t bits = occupied_[w] & (~0ull << (from & 63))) {
      return lowest(w, bits);
    }
    std::uint64_t words = summary_ & (~1ull << w);  // the words after w
    if (words == 0) words = summary_;               // wrap to slot 0
    if (words == 0) return kNil;
    const auto first = static_cast<std::uint32_t>(std::countr_zero(words));
    return lowest(first, occupied_[first]);
  }

  /// The slot of the lowest set bit in occupancy word `word`, whose bits
  /// are `bits` (non-zero).
  static std::uint32_t lowest(std::uint32_t word, std::uint64_t bits) {
    return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
  }

  /// The time of `slot`'s records: the one in [base_, base_ + kSlots)
  /// that the slot files.
  [[nodiscard]] Cycles slot_time(std::uint32_t slot) const noexcept {
    return base_ + ((slot - static_cast<std::uint32_t>(base_)) & kMask);
  }

  /// Whether `slot`'s first record, at time `t`, precedes the overflow
  /// heap's top. Only a tie reads a label; an empty heap's kNever ties no
  /// wheel time.
  [[nodiscard]] bool wheel_next(std::uint32_t slot, Cycles t) const noexcept {
    if (t != overflow_min_) return t < overflow_min_;
    return wheel_->first[slot].seq < overflow_.front().seq;
  }

  /// A pool record for a chain, recycled or new. Call it before taking any
  /// pointer into the pool: a new record may move the pool.
  [[nodiscard]] std::uint32_t allocate() {
    if (free_ == kNil) {
      pool_.emplace_back();
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t n = free_;
    free_ = pool_[n].next;
    return n;
  }

  /// File a record in `slot`, which already holds a first record, in label
  /// order. The fields come as scalars: a 24-byte record passed by value
  /// would go through the stack.
  void chain(std::uint32_t slot, std::uint64_t seq, std::uint64_t payload,
             std::uint32_t home) {
    const std::uint32_t n = allocate();
    Record& first = wheel_->first[slot];
    if (seq < first.seq) {
      // The arrival takes the slot's place; the old first, with its link,
      // heads the chain.
      if (first.next == kNil) wheel_->tail[slot] = n;
      pool_[n] = first;
      first = Record{seq, payload, home, n};
      return;
    }
    std::uint32_t* link = &first.next;
    if (first.next != kNil) {
      Record& last = pool_[wheel_->tail[slot]];
      if (seq > last.seq) {  // the O(1) append
        link = &last.next;
      } else {
        // Stops at the chain's last record at the latest.
        while (pool_[*link].seq < seq) link = &pool_[*link].next;
      }
    }
    if (*link == kNil) wheel_->tail[slot] = n;
    pool_[n] = Record{seq, payload, home, *link};
    *link = n;
  }

  /// Remove and return `slot`'s first record, at time `t`; the chain's
  /// second record, if any, moves up into the slot.
  EventKey pop_slot(std::uint32_t slot, Cycles t) noexcept {
    Record& first = wheel_->first[slot];
    const EventKey k{t, first.seq, first.payload, first.home};
    if (const std::uint32_t n = first.next; n != kNil) {
      first = pool_[n];
      pool_[n].next = free_;
      free_ = n;
    } else {
      std::uint64_t& word = occupied_[slot >> 6];
      word &= ~(1ull << (slot & 63));
      if (word == 0) summary_ &= ~(1ull << (slot >> 6));
    }
    base_ = t;
    return k;
  }

  EventKey pop_overflow() {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    const EventKey k = overflow_.back();
    overflow_.pop_back();
    overflow_min_ = overflow_.empty() ? kNever : overflow_.front().t;
    base_ = k.t;
    return k;
  }

  Cycles base_ = 0;               // the last popped time
  Cycles overflow_min_ = kNever;  // the overflow heap's earliest time
  std::uint64_t summary_ = 0;     // one bit per non-zero occupancy word
  std::size_t size_ = 0;
  Wheel* wheel_;  // owned
  // Chained records, addressed by index, and the head of their LIFO
  // freelist (linked through `next`).
  std::vector<Record> pool_;
  std::uint32_t free_ = kNil;
  // Events kSlots or more cycles past `base_` when pushed, as a heap.
  std::vector<EventKey> overflow_;
  std::array<std::uint64_t, kWords> occupied_{};  // one bit per slot

  // One parked wheel for the process, exchanged atomically, so that two
  // simulations on different host threads never share one. No result
  // depends on which wheel a queue gets: a slot is written before it is
  // read.
  // simlint: allow SS001
  inline static std::atomic<Wheel*> spare_{nullptr};
};

}  // namespace cm::sim
