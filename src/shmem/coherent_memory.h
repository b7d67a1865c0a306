// Directory-based cache-coherent shared memory (the paper's "data
// migration" mechanism, §2.2): full-map invalidate protocol in the style of
// Alewife [CKA91], with per-processor 64 KB caches, per-processor memory
// controllers (hardware resources distinct from the CPUs), and all protocol
// messages travelling through the shared Network so coherence traffic shows
// up in the bandwidth figures.
//
// Protocol summary (home-centric, blocking caches — the paper's target is
// "similar to the Alewife machine, but without its multithreading
// capability", so a processor stalls on a miss):
//
//   read miss   : REQ_R -> home; if dirty, home FETCHes the owner (owner
//                 downgrades M->S and writes back); home sends DATA.
//   write miss  : REQ_W -> home; home invalidates all sharers (INV/ACK) or
//                 fetch-invalidates a dirty owner; home sends exclusive DATA
//                 (header-only grant for an upgrade of a current sharer).
//   eviction    : dirty victims write back to home; clean victims drop
//                 silently (the directory may hold stale sharer bits, and
//                 invalidations to stale sharers are acked without effect).
//
// Each directory entry serialises transactions FIFO; each protocol message
// occupies the home/remote memory controller for a fixed occupancy.
//
// Host representation: a miss allocates nothing and hashes nothing, a hit
// touches one host cache line, and neither makes a coroutine frame of its
// own.
//  * A read or write is an `Access` awaiter in the awaiting frame. It looks
//    each line of its range up in its cache (Cache::hit) and, at the first
//    miss, starts one acquire() coroutine that serves that line and then
//    walks the rest of the range. A range that hits throughout makes no
//    frame and schedules no event. Caches pack a way into 8 bytes and
//    allocate their ways on their first install (cache.h).
//  * A transaction (`Txn`) lives in the frame of the acquire() that issued
//    it. It is the processor's MSHR entry, the node of its line's directory
//    FIFO and the completion signal the grant resumes. It is also the
//    directory's service of the transaction: a sim::Continuation that each
//    controller, network and trap wake steps on (`Step`, `advance`), from
//    the home's controller through any fetch, invalidation round and
//    LimitLESS trap to the grant, which serves the line's next transaction.
//    Accesses merged into it park nodes from their own frames on it.
//  * An invalidation round's ack count lives in the `Txn`; each INV/ACK leg
//    and each dirty writeback is a coroutine of its own, with a pooled
//    frame, and the last ack steps the transaction inline.
//  * The directory is dense and sized to the machine: a line's record
//    holds its FIFO head and tail, owner, modified flag and a sharer bitmap
//    of ceil(P/64) words on a P-processor machine (32 bytes at P = 64),
//    indexed by the line's offset in its home region. Records sit in chunks
//    of kDirChunk lines. alloc() only extends its home's table of chunks;
//    the first transaction on a line of a chunk makes the chunk, so a
//    machine pays for the lines its run misses on, not for every line it
//    allocates. Chunks never move, because a transaction holds its record
//    across suspensions while a B-tree split allocates.
//
// A processor outside the machine throws std::out_of_range from read,
// write and prefetch, in every build type.
#pragma once

#include <bit>
#include <bitset>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "net/network.h"
#include "shmem/addr.h"
#include "shmem/cache.h"
#include "sim/machine.h"
#include "sim/task.h"

namespace cm::shmem {

struct ProtocolParams {
  sim::Cycles controller_occupancy = 12;  // per protocol message handled
                                          // (directory lookup + state update)
  unsigned words_request = 2;            // REQ_R / REQ_W / INV / ACK / FETCH
  unsigned words_data = 2 + kLineBytes / 4;  // header + one 16-byte line

  /// LimitLESS directories [CKA91]: the hardware holds only this many
  /// sharer pointers per line; overflow traps to software on the home
  /// node's CPU, both when a sharer beyond the limit is added and when an
  /// overflowed line must be invalidated. 0 = full-map in hardware (the
  /// default used by the paper-reproduction benches).
  unsigned hw_sharer_pointers = 0;
  sim::Cycles limitless_trap = 150;  // software directory-extension handler
};

struct MemStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;  // includes upgrades
  std::uint64_t upgrades = 0;
  std::uint64_t invalidations = 0;  // INV messages sent
  std::uint64_t fetches = 0;        // dirty-owner interventions
  std::uint64_t writebacks = 0;     // dirty evictions
  std::uint64_t evictions = 0;
  std::uint64_t limitless_traps = 0;  // software directory-extension traps
  std::uint64_t prefetches = 0;       // prefetch transactions issued
  std::uint64_t mshr_merges = 0;      // demand accesses merged into an
                                      // in-flight transaction

  [[nodiscard]] std::uint64_t hits() const { return read_hits + write_hits; }
  [[nodiscard]] std::uint64_t misses() const {
    return read_misses + write_misses;
  }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits() + misses();
    return total == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(total);
  }
};

/// Upper bound on machine size: the width of DirSnapshot's sharer set and
/// of a cache way's line tag.
inline constexpr unsigned kMaxProcs = 256;
using SharerSet = std::bitset<kMaxProcs>;
static_assert((kHomeShift - kLineShift) + std::bit_width(kMaxProcs - 1) <=
                  Cache::kTagBits,
              "a cache way's tag must hold every line of a kMaxProcs machine");

class CoherentMemory {
 public:
  /// Throws std::invalid_argument on a machine of more than kMaxProcs
  /// processors or on bad `cache_params` (see Cache).
  CoherentMemory(sim::Machine& machine, net::Network& network,
                 CacheParams cache_params = {}, ProtocolParams params = {});

  /// Allocate `bytes` of shared memory homed on `home` (line-aligned).
  /// Throws std::invalid_argument if `home` is outside the machine or its
  /// home region cannot hold `bytes` more.
  [[nodiscard]] Addr alloc(sim::ProcId home, std::uint64_t bytes);

  /// The awaiter of `read` and `write`, a plain struct in the awaiting
  /// frame. `await_ready` looks every line up in turn, counting hits, and
  /// completes without suspending if all of them hit. At the first miss the
  /// awaiter starts one acquire() for the rest of the range and resumes the
  /// awaiting coroutine when it is done, or rethrows its exception.
  class [[nodiscard]] Access {
   public:
    Access(CoherentMemory* mem, sim::ProcId p, Addr a, unsigned bytes,
           bool exclusive) noexcept
        : mem_(mem),
          p_(p),
          exclusive_(exclusive),
          line_(line_of(a)),
          last_(line_of(a + (bytes == 0 ? 0 : bytes - 1))) {}

    bool await_ready();
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      return task_.start(mem_->acquire(p_, line_, last_, exclusive_), caller);
    }
    void await_resume() {
      if (task_.started()) task_.take();
    }

   private:
    CoherentMemory* mem_;
    sim::ProcId p_;
    bool exclusive_;
    Line line_;  // the next line to look up; once suspended, the first miss
    Line last_;
    sim::Started<void> task_;  // acquire(), from the first miss on
  };
  // Awaited as a prvalue: safe from GCC 12.2's double destruction only
  // while this holds (see suspend_to, task.h).
  static_assert(std::is_trivially_destructible_v<Access>);

  /// Processor `p` reads [a, a+bytes): every touched line is brought to at
  /// least Shared in p's cache. Completes when all lines are present.
  /// A miss on a line that alloc() never handed out, or a processor outside
  /// the machine, throws std::out_of_range to the awaiter (as do write and,
  /// to its caller, prefetch).
  [[nodiscard]] Access read(sim::ProcId p, Addr a, unsigned bytes) {
    return Access(this, p, a, bytes, false);
  }

  /// Processor `p` writes [a, a+bytes): every touched line is brought to
  /// Modified in p's cache (read-modify-write and plain stores cost the
  /// same here).
  [[nodiscard]] Access write(sim::ProcId p, Addr a, unsigned bytes) {
    return Access(this, p, a, bytes, true);
  }

  /// Non-blocking prefetch (§2.5: "prefetching will lower the relative
  /// cost of performing data migration"): start read acquisitions for
  /// every absent line of [a, a+bytes) and return immediately. A later
  /// `read` of the same lines merges with the in-flight transactions
  /// through the MSHRs instead of re-requesting.
  void prefetch(sim::ProcId p, Addr a, unsigned bytes);

  [[nodiscard]] const MemStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Cache& cache(sim::ProcId p) const { return caches_.at(p); }

  /// Test hooks: observable directory state for invariant checks.
  struct DirSnapshot {
    bool modified = false;
    sim::ProcId owner = sim::kNoProc;
    SharerSet sharers;
    bool busy = false;
  };
  /// A line no transaction has touched reads as the default state.
  [[nodiscard]] DirSnapshot dir_snapshot(Line line) const;
  /// Directory records per chunk.
  static constexpr std::uint64_t kDirChunk = 256;
  /// Directory chunks made so far, kDirChunk records each.
  [[nodiscard]] std::size_t dir_chunks() const noexcept { return dir_chunks_; }

 private:
  /// An access merged into an in-flight transaction (MSHR merge); lives in
  /// the merging acquire()'s frame.
  struct Merge {
    std::coroutine_handle<> waiter;
    Merge* next = nullptr;
  };

  struct Txn;

  /// A line's directory record. Its sharer bitmap, sharer_words_ words
  /// with processor p at bit p % 64 of word p / 64, follows it in its
  /// chunk (sharers_of()).
  struct Dir {
    Txn* head = nullptr;  // FIFO of transactions; the head is being served
    Txn* tail = nullptr;
    sim::ProcId owner = sim::kNoProc;
    bool modified = false;
  };
  static_assert(sizeof(Dir) % alignof(std::uint64_t) == 0,
                "the sharer bitmap after a Dir must be word-aligned");

  /// Where the directory's service of a transaction stands, in protocol
  /// order: each wake of its Continuation runs `advance` from its step.
  enum class Step : std::uint8_t {
    kQueued,      // heads its line's FIFO: the home's controller takes it
    kRequest,     // the home decides: fetch, invalidate or grant
    kFetch,       // the FETCH reached the dirty owner: its controller takes it
    kFetched,     // the owner gave the line up: its data goes home
    kDataHome,    // the data reached the home: its controller takes it
    kDataIn,      // the home has the data: grant
    kInvalidate,  // an INV to every other sharer (after any overflow trap)
    kAcked,       // the last ACK reached the home: its controller takes it
    kGrantWrite,  // the line goes Modified to the requester
    kShare,       // the requester joins the sharers (trap past the pointers)
    kGrantRead,   // the data goes to the requester
    kGranted,     // the grant arrived: resume the requester, serve the next
  };

  /// One coherence transaction, from the miss to the grant. It lives in the
  /// frame of the acquire() that issued it and is at once the requester's
  /// MSHR entry (`in_flight_`), a node of the line's directory FIFO
  /// (`Dir::head`), the completion signal (the grant resumes `waiter`) and
  /// the directory's service of it, a Continuation stepped by `advance`.
  struct Txn : sim::Continuation {
    Txn(CoherentMemory* m, sim::ProcId p, Line l, bool x) noexcept
        : sim::Continuation{&CoherentMemory::on_wake},
          mem(m),
          line(l),
          requester(p),
          exclusive(x) {}

    CoherentMemory* mem;
    Line line;
    sim::ProcId requester;
    sim::ProcId owner = sim::kNoProc;  // the dirty owner a fetch visits
    int pending = 0;                   // invalidation acks outstanding
    bool exclusive;
    Step step = Step::kQueued;
    Dir* record = nullptr;  // the line's, once enqueued
    std::coroutine_handle<> waiter = nullptr;  // the issuing acquire()
    Txn* next_in_dir = nullptr;
    Txn* next_in_flight = nullptr;
    Merge* merged_head = nullptr;  // FIFO of merged accesses
    Merge* merged_tail = nullptr;
  };

  /// A record's full-map presence vector, as a view of its words.
  struct Sharers {
    std::uint64_t* words;
    unsigned n;

    [[nodiscard]] bool test(sim::ProcId p) const {
      return ((words[p / 64] >> (p % 64)) & 1) != 0;
    }
    void set(sim::ProcId p) const {
      words[p / 64] |= std::uint64_t{1} << (p % 64);
    }
    void clear() const {
      for (unsigned i = 0; i < n; ++i) words[i] = 0;
    }
    [[nodiscard]] unsigned count() const {
      unsigned c = 0;
      for (unsigned i = 0; i < n; ++i) c += std::popcount(words[i]);
      return c;
    }
  };

  /// Serve [line, last] at `p`, starting from a miss on `line`.
  [[nodiscard]] sim::Task<> acquire(sim::ProcId p, Line line, Line last,
                                    bool exclusive);
  /// Does `line` satisfy an access at `c`? Counts the hit.
  bool hit(Cache& c, Line line, bool exclusive) {
    if (!c.hit(line, exclusive)) return false;
    // The (1-2 cycle) hit latency is folded into the user-code cycle
    // charges, as instruction timing is in Proteus.
    exclusive ? ++stats_.write_hits : ++stats_.read_hits;
    return true;
  }
  /// `p`'s in-flight transaction for `line`, if any.
  [[nodiscard]] Txn* in_flight(sim::ProcId p, Line line) const;
  /// Join `t` to its line's directory FIFO; start serving if it was idle.
  void enqueue(Txn& t);
  /// A transaction's Continuation: `advance` the Txn it is.
  static void on_wake(sim::Continuation* c) noexcept;
  /// Run `t`'s service from its step to its next wake.
  void advance(Txn& t);
  /// One INV -> sharer controller -> ACK leg of `t`'s invalidation round.
  sim::Detached invalidate(Txn* t, sim::ProcId sharer);
  /// A dirty victim's data travels home and clears its ownership there.
  sim::Detached writeback(sim::ProcId p, Line line);

  [[nodiscard]] bool allocated(Line line) const;
  void require_allocated(Line line) const;
  /// `p`'s cache; throws std::out_of_range if `p` is outside the machine.
  [[nodiscard]] Cache& cache_of(sim::ProcId p);
  /// `line`'s directory record. The first transaction on a line of a chunk
  /// makes the chunk.
  [[nodiscard]] Dir& record(Line line) {
    const std::uint64_t off = line_offset(line);
    std::unique_ptr<std::byte[]>& chunk =
        dirs_[home_of_line(line)][off / kDirChunk];
    if (chunk == nullptr) [[unlikely]] make_chunk(chunk);
    return record_in(chunk.get(), off % kDirChunk);
  }
  [[gnu::cold, gnu::noinline]] void make_chunk(
      std::unique_ptr<std::byte[]>& chunk);
  /// Record `r` of `chunk`.
  [[nodiscard]] Dir& record_in(std::byte* chunk, std::uint64_t r) const {
    return *std::launder(reinterpret_cast<Dir*>(chunk + r * dir_stride_));
  }
  [[nodiscard]] Sharers sharers_of(Dir& d) const {
    return {std::launder(reinterpret_cast<std::uint64_t*>(
                reinterpret_cast<std::byte*>(&d) + sizeof(Dir))),
            sharer_words_};
  }
  /// Report `line`'s directory state to the checker, if one is attached.
  void check_line(Line line, const Dir& d, Sharers s) const;

  /// Occupy proc `p`'s memory controller for one message, then wake `w`.
  void occupy(sim::ProcId p, sim::Wake w);
  /// Awaitable: `occupy` for a coroutine.
  [[nodiscard]] auto controller(sim::ProcId p);
  /// LimitLESS: does a set of `sharers` overflow the hardware pointers
  /// (never under a full-map configuration)?
  [[nodiscard]] bool overflows(std::size_t sharers) const {
    return params_.hw_sharer_pointers != 0 &&
           sharers > params_.hw_sharer_pointers;
  }
  /// Awaitable: the software trap that handles an overflow runs on the
  /// home CPU (not the memory controller).
  [[nodiscard]] sim::Machine::Compute trap(sim::ProcId home);
  /// Coherence message src -> dst; `w` wakes at delivery.
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, sim::Wake w);
  /// Awaitable: `send` for a coroutine.
  [[nodiscard]] auto transfer(sim::ProcId src, sim::ProcId dst, unsigned words);

  sim::Machine* machine_;
  net::Network* network_;
  ProtocolParams params_;
  GlobalHeap heap_;
  std::vector<Cache> caches_;
  sim::ProcessorFile controllers_;  // FCFS memory controllers
  unsigned sharer_words_;            // ceil(P / 64)
  std::size_t dir_stride_;           // bytes per record, bitmap included
  // Per home: chunks of kDirChunk records, by line offset; null until a
  // transaction touches one of the chunk's lines.
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> dirs_;
  std::size_t dir_chunks_ = 0;  // chunks made
  std::vector<Txn*> in_flight_;        // per processor: its MSHR list
  MemStats stats_;
};

}  // namespace cm::shmem
