// Per-processor hardware cache model: 64 KB, 16-byte lines, set-associative
// with LRU replacement (paper §4: "each processor has a 64K shared-memory
// cache with a line size of 16 bytes"). A cache allocates its ways on its
// first install: processors that never touch shared memory (the B-tree's
// node processors, say) cost nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "shmem/addr.h"

namespace cm::shmem {

enum class LineState : std::uint8_t { kInvalid, kShared, kModified };

struct CacheParams {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t associativity = 2;

  [[nodiscard]] std::uint32_t num_sets() const {
    return size_bytes / kLineBytes / associativity;
  }
};

/// Result of installing a line: the victim that had to be evicted, if any.
struct Eviction {
  Line line = 0;
  bool dirty = false;  // dirty victims must write back to their home
};

class Cache {
 public:
  /// Throws std::invalid_argument unless the associativity is nonzero and
  /// the size a positive multiple of kLineBytes * associativity.
  explicit Cache(CacheParams params = {});

  /// Current state of `line` in this cache (kInvalid if absent).
  [[nodiscard]] LineState lookup(Line line) const;

  /// Install `line` with `state`, possibly evicting an LRU victim from the
  /// line's set. Touches LRU. `line` must not already be present.
  std::optional<Eviction> install(Line line, LineState state);

  /// Change the state of a present line (e.g. S->M on upgrade, M->S on a
  /// directory fetch, ->I on invalidation). Returns false if absent (stale
  /// directory information; the caller acks anyway).
  bool set_state(Line line, LineState state);

  /// Mark a present line most-recently-used.
  void touch(Line line);

  [[nodiscard]] std::uint32_t num_sets() const { return params_.num_sets(); }
  [[nodiscard]] std::uint64_t occupancy() const { return present_; }

 private:
  struct Way {
    Line line = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lru = 0;  // higher = more recent
  };

  [[nodiscard]] std::uint32_t set_of(Line line) const {
    // Fold the home-processor bits (bit 28 up in a line address) into the
    // index: home regions are 4 GiB-aligned, so without this the first
    // lines of every region would all collide in set 0.
    return static_cast<std::uint32_t>((line ^ (line >> 24)) %
                                      params_.num_sets());
  }
  [[nodiscard]] Way* find(Line line);
  [[nodiscard]] const Way* find(Line line) const;

  CacheParams params_;
  std::vector<Way> ways_;  // num_sets * associativity, set-major; empty
                           // until the first install
  std::uint64_t clock_ = 0;
  std::uint64_t present_ = 0;
};

}  // namespace cm::shmem
