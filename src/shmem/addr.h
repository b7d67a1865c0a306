// Global shared address space and allocator.
//
// The paper's target machine "provides both private memory and shared
// memory"; shared data lives in a global address space whose home processor
// is encoded in the address (high bits), as on Alewife. This is a
// timing-only simulation: the actual bytes live in ordinary host objects;
// the shared-memory layer tracks coherence state and charges protocol
// traffic/latency for the address ranges the application touches.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/types.h"

namespace cm::shmem {

/// Global shared-memory address.
using Addr = std::uint64_t;

/// Cache-line-aligned address >> kLineShift.
using Line = std::uint64_t;

inline constexpr unsigned kLineShift = 4;  // 16-byte lines (paper §4)
inline constexpr unsigned kLineBytes = 1u << kLineShift;
inline constexpr unsigned kHomeShift = 32;  // home proc in bits [32..)

[[nodiscard]] inline Line line_of(Addr a) noexcept { return a >> kLineShift; }
[[nodiscard]] inline sim::ProcId home_of_addr(Addr a) noexcept {
  return static_cast<sim::ProcId>(a >> kHomeShift);
}
[[nodiscard]] inline sim::ProcId home_of_line(Line l) noexcept {
  return static_cast<sim::ProcId>(l >> (kHomeShift - kLineShift));
}
/// Index of a line within its home region.
[[nodiscard]] inline std::uint64_t line_offset(Line l) noexcept {
  return l & ((Line{1} << (kHomeShift - kLineShift)) - 1);
}

/// Number of lines an access [a, a+bytes) touches.
[[nodiscard]] inline unsigned lines_touched(Addr a, unsigned bytes) noexcept {
  if (bytes == 0) return 0;
  const Line first = line_of(a);
  const Line last = line_of(a + bytes - 1);
  return static_cast<unsigned>(last - first + 1);
}

/// Bump allocator over the global space: each processor owns a 4 GiB home
/// region; allocations are line-aligned so distinct objects never share a
/// cache line (no false sharing unless a client asks for it explicitly).
class GlobalHeap {
 public:
  explicit GlobalHeap(sim::ProcId nprocs) : next_(nprocs, 0) {}

  /// Throws std::invalid_argument if `home` is outside the machine or its
  /// region cannot hold `bytes` more.
  [[nodiscard]] Addr alloc(sim::ProcId home, std::uint64_t bytes) {
    if (home >= next_.size()) {
      throw std::invalid_argument(
          "GlobalHeap::alloc: home outside the machine");
    }
    const std::uint64_t off = next_[home];
    // off never exceeds the region size, so the subtraction cannot wrap;
    // every address handed out keeps its home's bits.
    constexpr std::uint64_t kRegion = std::uint64_t{1} << kHomeShift;
    if (off == kRegion || bytes > kRegion - off) {
      throw std::invalid_argument("GlobalHeap::alloc: home region exhausted");
    }
    const std::uint64_t aligned =
        (bytes + kLineBytes - 1) & ~std::uint64_t{kLineBytes - 1};
    next_[home] = off + aligned;
    return (static_cast<Addr>(home) << kHomeShift) | off;
  }

  /// Bytes allocated so far in `home`'s region (a multiple of kLineBytes).
  [[nodiscard]] std::uint64_t used(sim::ProcId home) const {
    return next_.at(home);
  }

 private:
  std::vector<std::uint64_t> next_;
};

}  // namespace cm::shmem
