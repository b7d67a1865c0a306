// Synchronisation primitives built on cache-coherent shared memory.
//
// SpinLock: test-and-test-and-set on a cached line. While the lock is held,
// spinners wait on a locally cached Shared copy (no traffic); the holder's
// releasing write invalidates every spinner's copy, after which they all
// re-read (one miss each) and race to test-and-set (directory-serialised).
// This is the mechanism behind shared memory's bandwidth appetite under
// write-shared data (Fig 3 / Tables 2, 4): every lock handoff costs O(k)
// protocol messages for k spinners.
//
// SeqLock: version-based optimistic reads, used by the shared-memory B-tree
// so lookups replicate read-shared node lines in every reader's cache — the
// "automatic replication" advantage the paper attributes to cache-coherent
// shared memory.
//
// Both primitives keep their logical state (held/version) in host variables;
// the shared-memory layer supplies timing and traffic for the address each
// primitive occupies.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "shmem/coherent_memory.h"
#include "sim/task.h"

namespace cm::shmem {

class SpinLock {
 public:
  SpinLock(CoherentMemory& mem, sim::ProcId home)
      : mem_(&mem), addr_(mem.alloc(home, 4)) {}

  /// Acquire from processor `p`; suspends while contended.
  [[nodiscard]] sim::Task<> acquire(sim::ProcId p);

  /// Release from processor `p`. Throws std::logic_error to the awaiter,
  /// before any state change or simulated step, unless `p` holds the lock.
  [[nodiscard]] sim::Task<> release(sim::ProcId p);

  [[nodiscard]] bool held() const noexcept { return held_; }
  [[nodiscard]] sim::ProcId holder() const noexcept { return holder_; }
  [[nodiscard]] Addr addr() const noexcept { return addr_; }

 private:
  CoherentMemory* mem_;
  Addr addr_;
  bool held_ = false;
  sim::ProcId holder_ = sim::kNoProc;
  std::vector<std::coroutine_handle<>> spinners_;
};

class SeqLock {
 public:
  SeqLock(CoherentMemory& mem, sim::ProcId home)
      : mem_(&mem), addr_(mem.alloc(home, 8)) {}

  /// Begin an optimistic read from `p`: returns an even version once no
  /// write is in progress. The caller then reads the protected data and
  /// calls `validate`.
  [[nodiscard]] sim::Task<std::uint64_t> begin_read(sim::ProcId p);

  /// Re-read the version from `p`; true iff it still equals `v` (the
  /// optimistic read was consistent).
  [[nodiscard]] sim::Task<bool> validate(sim::ProcId p, std::uint64_t v);

  /// Writer entry/exit (the caller must provide mutual exclusion between
  /// writers, e.g. with a SpinLock). `begin_write` while a write is open,
  /// and `end_write` while none is, throw std::logic_error to the awaiter
  /// before any state change or simulated step.
  [[nodiscard]] sim::Task<> begin_write(sim::ProcId p);
  [[nodiscard]] sim::Task<> end_write(sim::ProcId p);

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  CoherentMemory* mem_;
  Addr addr_;
  std::uint64_t version_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace cm::shmem
