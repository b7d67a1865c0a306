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
// Host representation: a miss makes no coroutine frame and hashes nothing,
// a hit touches one host cache line, and every transaction runs as steps of
// a pooled record, the way the runtime's protocols run (core::Runtime's
// FrameFree).
//  * A read or write is an `Access` awaiter in the awaiting frame. It looks
//    each line of its range up in its cache (Cache::hit). A range that hits
//    throughout makes no record and schedules no event. At the first miss
//    the awaiter takes a `Txn` record, which serves that line, walks the
//    rest of the range and serves each further miss, then resumes the
//    awaiting coroutine. Caches pack a way into 8 bytes and allocate their
//    ways on their first install (cache.h).
//  * A transaction (`Txn`) is a record from a free list the memory owns
//    (`Pool`), in a block of the host thread's sim::FramePool. It is the
//    processor's MSHR entry, the node of its line's directory FIFO and the
//    directory's service of the transaction: a sim::Continuation whose
//    `run` is the function of its next step, so
//    each controller, network and trap wake lands on that step through one
//    indirect call. A step that needs no wake calls the next one directly.
//    The steps run from the request's arrival through the home's
//    controller, any fetch, invalidation round and LimitLESS trap, to the
//    grant, which fills the line in one set scan and serves the line's
//    next transaction. An access merged into an in-flight transaction, and
//    a prefetch, are records too: the merged one waits on the ongoing
//    record's merge FIFO and looks at its line again when woken; a
//    prefetch's record has no coroutine to resume.
//  * Each INV/ACK leg of an invalidation round and each dirty writeback is
//    a pooled `Leg` record with steps of its own. A round's ack count lives
//    in its `Txn`, and the last ack steps the transaction inline.
//  * A later line of a range that alloc() never handed out is found in an
//    engine event. Its std::out_of_range is parked in the memory and
//    rethrown by the awaiter's `await_resume`.
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
#include <exception>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/network.h"
#include "shmem/addr.h"
#include "shmem/cache.h"
#include "sim/frame_pool.h"
#include "sim/machine.h"
#include "sim/wake.h"

namespace cm::shmem {

struct ProtocolParams {
  /// LimitLESS directories [CKA91]: the hardware holds only this many
  /// sharer pointers per line; overflow traps to software on the home
  /// node's CPU, both when a sharer beyond the limit is added and when an
  /// overflowed line must be invalidated. 0 = full-map in hardware (the
  /// default used by the paper-reproduction benches).
  unsigned hw_sharer_pointers = 0;
  static constexpr sim::Cycles limitless_trap = 150;  // software trap handler
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
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
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
  /// completes without suspending if all of them hit. At the first miss
  /// `await_suspend` issues a transaction record for the rest of the range,
  /// which resumes the awaiting coroutine when it is done; `await_resume`
  /// rethrows what the record parked.
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
    void await_suspend(std::coroutine_handle<> caller) {
      mem_->miss(p_, line_, last_, exclusive_, caller);
    }
    void await_resume() {
      if (mem_->parked_ != nullptr) [[unlikely]] {
        std::rethrow_exception(std::exchange(mem_->parked_, nullptr));
      }
    }

   private:
    CoherentMemory* mem_;
    sim::ProcId p_;
    bool exclusive_;
    Line line_;  // the next line to look up; once suspended, the first miss
    Line last_;
  };
  // Awaited as a prvalue: safe from GCC 12.2's double destruction only
  // while this holds (see the prvalue awaiter note in sim/task.h).
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
  [[nodiscard]] const Cache& cache(sim::ProcId p) const {
    return caches_.at(p);
  }

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

  /// One processor's coherence misses on a range, from its first miss to
  /// its last line: a record from the memory's pool (`txns_`), reused
  /// for each further miss of the range, and back in the pool once the
  /// range is served (`finish`). While a line is in flight it is the
  /// requester's MSHR entry (`in_flight_`), a node of the line's directory
  /// FIFO (`Dir::head`) and the directory's service of the line; its `run`
  /// is the step its next wake runs (`next`).
  struct Txn : sim::Continuation {
    CoherentMemory* mem = nullptr;
    Line line = 0;  // the line in flight
    Line last = 0;  // the range's last line
    sim::ProcId requester = 0;
    sim::ProcId owner = sim::kNoProc;  // the dirty owner a fetch visits
    int pending = 0;                   // invalidation acks outstanding
    bool exclusive = false;
    Dir* record = nullptr;                     // the line's, once it arrived
    std::coroutine_handle<> waiter = nullptr;  // null for a prefetch
    Txn* next = nullptr;  // in its line's FIFO, a merge FIFO or the pool
    Txn* next_in_flight = nullptr;
    Txn* merged_head = nullptr;  // FIFO of records merged into this one
    Txn* merged_tail = nullptr;
    Txn* made = nullptr;  // the pool's record made before this one
  };

  /// One INV -> sharer controller -> ACK leg of a transaction's
  /// invalidation round, or one dirty victim's writeback: a pooled record
  /// whose `run` is its next step.
  struct Leg : sim::Continuation {
    CoherentMemory* mem = nullptr;
    Txn* txn = nullptr;  // the round's transaction; null for a writeback
    Line line = 0;
    sim::ProcId at = 0;  // the sharer, or the writer of the writeback
    Leg* next = nullptr;  // in the pool
    Leg* made = nullptr;  // the pool's record made before this one
  };

  /// Records of one kind: every one made (linked through `made`), freed
  /// with the memory, and a list, linked through `next`, of those not in
  /// use. A record's block comes from the host thread's sim::FramePool and
  /// goes back to it, so the blocks outlive the machine, as coroutine
  /// frames do: a run that builds machine after machine takes none from
  /// the global allocator once warm. Blocks freed to malloc with each
  /// machine made glibc trim the heap after every perfbench set-up call at
  /// some seeds, and the next call fault its pages back in.
  template <class R>
  struct Pool {
    R* all = nullptr;
    R* free = nullptr;

    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      while (R* r = all) {
        all = r->made;
        r->~R();
        sim::FramePool::deallocate(r, sizeof(R));
      }
    }

    /// A record off the list, or a new one if it is empty.
    [[nodiscard]] R& take() {
      if (free == nullptr) {
        R* const r = ::new (sim::FramePool::allocate(sizeof(R))) R{};
        r->made = std::exchange(all, r);
        return *r;
      }
      return *std::exchange(free, free->next);
    }
    void give_back(R& r) noexcept {
      r.next = free;
      free = &r;
    }
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

  /// The wake of record `c` (a Txn or a Leg): run its step S.
  template <class R, auto S>
  static void step(sim::Continuation* c) {
    R& r = static_cast<R&>(*c);
    (r.mem->*S)(r);
  }
  /// Make S the step the next wake of `r` runs.
  template <auto S, class R>
  static void next(R& r) noexcept {
    r.run = &step<R, S>;
  }

  // A miss, at the requester. Defined in protocol order.
  /// Serve [line, last] at `p` from a miss on `line`, then resume `waiter`
  /// (null for a prefetch). Throws std::out_of_range, having done nothing,
  /// if alloc() never handed `line` out.
  void miss(sim::ProcId p, Line line, Line last, bool exclusive,
            std::coroutine_handle<> waiter);
  /// Count `t`'s miss on its line, then `look`.
  void issue(Txn& t);
  /// Merge `t` into its requester's in-flight transaction for the line
  /// (MSHR), or make it that transaction and send the request home.
  void look(Txn& t);
  /// A merged record's wake, from the grant of the transaction it merged
  /// with: a read in flight does not satisfy a write, so look at the line
  /// again.
  void recheck(Txn& t);
  /// The request reached the home: join the line's FIFO, and start its
  /// service if the FIFO was idle.
  void arrive(Txn& t);

  // The directory's service of a transaction, in protocol order.
  void queued(Txn& t);       // heads its FIFO: the home's controller takes it
  void request(Txn& t);      // the home decides: fetch, invalidate or grant
  void fetch(Txn& t);        // the FETCH reached the dirty owner
  void fetched(Txn& t);      // the owner gave the line up: data goes home
  void data_home(Txn& t);    // the data reached the home
  void data_in(Txn& t);      // the home has the data: grant
  void invalidate(Txn& t);   // an INV to every other sharer
  void acked(Txn& t);        // the last ACK reached the home
  void grant_write(Txn& t);  // the line goes Modified to the requester
  void share(Txn& t);        // the requester joins the sharers
  void grant_read(Txn& t);   // the data goes to the requester
  void granted(Txn& t);      // the grant arrived: fill, serve the next

  // Back at the requester, from the grant.
  /// Install `t`'s line, start a dirty victim's writeback, retire the MSHR
  /// entry and wake the merged records in merge order; then `walk`.
  void fill(Txn& t);
  /// Walk the rest of `t`'s range, counting hits, to its next miss, which
  /// `t` issues; or `finish` at its end.
  void walk(Txn& t);
  /// Return `t` to the pool, then resume its coroutine, if it has one.
  void finish(Txn& t);

  // Legs.
  /// Start `t`'s INV leg to `sharer`: the INV leaves at once.
  void start_invalidation(Txn& t, sim::ProcId sharer);
  void inv_arrived(Leg& l);  // the INV reached the sharer
  void inv_handled(Leg& l);  // the sharer dropped its copy: ACK home
  void ack_arrived(Leg& l);  // the ACK reached the home
  /// Start a dirty victim's writeback: its data leaves `p` at once.
  void start_writeback(sim::ProcId p, Line line);
  void wb_arrived(Leg& l);  // the data reached the home
  void wb_handled(Leg& l);  // the home clears the writer's ownership

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
  /// LimitLESS: does a set of `sharers` overflow the hardware pointers
  /// (never under a full-map configuration)?
  [[nodiscard]] bool overflows(std::size_t sharers) const {
    return params_.hw_sharer_pointers != 0 &&
           sharers > params_.hw_sharer_pointers;
  }
  /// The software trap that handles an overflow runs on the home CPU (not
  /// the memory controller), then wakes `w`.
  void trap(sim::ProcId home, sim::Wake w);
  /// Coherence message src -> dst; `w` wakes at delivery.
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, sim::Wake w);

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
  Pool<Txn> txns_;
  Pool<Leg> legs_;
  // A later line's std::out_of_range, until the awaiter rethrows it.
  std::exception_ptr parked_;
  MemStats stats_;
};

}  // namespace cm::shmem
