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
// Host representation: a miss allocates nothing and hashes nothing.
//  * A transaction (`Txn`) lives in the frame of the acquire() that issued
//    it. It is the processor's MSHR entry, the node of its line's directory
//    FIFO, and the completion signal the grant resumes. Accesses merged
//    into it park nodes from their own frames on it.
//  * An invalidation round's ack count lives in the frame of the directory
//    coroutine that serves the write; each INV/ACK leg and each dirty
//    writeback is a coroutine of its own, with a pooled frame.
//  * The directory is dense: one table per home, indexed by the line's
//    offset in the home region and grown by alloc(). Entries never move,
//    because a directory coroutine holds one across suspensions while a
//    B-tree split allocates.
//  * A cache allocates its ways on its first install (cache.h).
#pragma once

#include <bitset>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
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

/// Upper bound on machine size for the full-map directory's sharer vector.
inline constexpr unsigned kMaxProcs = 256;
using SharerSet = std::bitset<kMaxProcs>;

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

  /// Processor `p` reads [a, a+bytes): every touched line is brought to at
  /// least Shared in p's cache. Completes when all lines are present.
  /// A miss on a line that alloc() never handed out throws
  /// std::out_of_range (as do write and prefetch).
  [[nodiscard]] sim::Task<> read(sim::ProcId p, Addr a, unsigned bytes);

  /// Processor `p` writes [a, a+bytes): every touched line is brought to
  /// Modified in p's cache (read-modify-write and plain stores cost the
  /// same here).
  [[nodiscard]] sim::Task<> write(sim::ProcId p, Addr a, unsigned bytes);

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
  [[nodiscard]] DirSnapshot dir_snapshot(Line line) const;

 private:
  /// An access merged into an in-flight transaction (MSHR merge); lives in
  /// the merging acquire()'s frame.
  struct Merge {
    std::coroutine_handle<> waiter;
    Merge* next = nullptr;
  };

  /// One coherence transaction, from the miss to the grant. It lives in the
  /// frame of the acquire() that issued it and is at once the requester's
  /// MSHR entry (`in_flight_`), a node of the line's directory FIFO
  /// (`Dir::head`) and the completion signal (the grant resumes `waiter`).
  struct Txn {
    sim::ProcId requester;
    Line line;
    bool exclusive;
    std::coroutine_handle<> waiter = nullptr;  // the issuing acquire()
    Txn* next_in_dir = nullptr;
    Txn* next_in_flight = nullptr;
    Merge* merged_head = nullptr;  // FIFO of merged accesses
    Merge* merged_tail = nullptr;
  };

  struct Dir {
    SharerSet sharers;     // full-map presence vector
    Txn* head = nullptr;   // FIFO of transactions; the head is being served
    Txn* tail = nullptr;
    sim::ProcId owner = sim::kNoProc;
    bool modified = false;
  };

  /// One invalidation round; lives in serve_front()'s frame.
  struct InvRound {
    int pending;  // acks outstanding
    std::coroutine_handle<> waiter;
  };

  [[nodiscard]] sim::Task<> acquire(sim::ProcId p, Line line, bool exclusive);
  /// `p`'s in-flight transaction for `line`, if any.
  [[nodiscard]] Txn* in_flight(sim::ProcId p, Line line) const;
  /// Join `t` to its line's directory FIFO; start serving if it was idle.
  void enqueue(Txn& t);
  /// Serve the FIFO of `line` until it drains.
  sim::Detached serve_front(Line line);
  /// One INV -> sharer controller -> ACK leg of `round`.
  sim::Detached invalidate(InvRound* round, Line line, sim::ProcId home,
                           sim::ProcId sharer);
  /// A dirty victim's data travels home and clears its ownership there.
  sim::Detached writeback(sim::ProcId p, Line line);

  [[nodiscard]] bool allocated(Line line) const;
  void require_allocated(Line line) const;
  [[nodiscard]] Dir& dir(Line line) {
    return dirs_[home_of_line(line)][line_offset(line)];
  }

  /// Awaitable: occupy proc `p`'s memory controller for one message.
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
  /// Awaitable: coherence message src -> dst, resume at delivery.
  [[nodiscard]] auto transfer(sim::ProcId src, sim::ProcId dst, unsigned words);

  sim::Machine* machine_;
  net::Network* network_;
  ProtocolParams params_;
  GlobalHeap heap_;
  std::vector<Cache> caches_;
  sim::ProcessorFile controllers_;  // FCFS memory controllers
  std::vector<std::deque<Dir>> dirs_;  // per home, by line offset
  std::vector<Txn*> in_flight_;        // per processor: its MSHR list
  MemStats stats_;
};

}  // namespace cm::shmem
