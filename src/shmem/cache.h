// Per-processor hardware cache model: 64 KB, 16-byte lines, set-associative
// with LRU replacement (paper §4: "each processor has a 64K shared-memory
// cache with a line size of 16 bytes").
//
// Host representation: a way is one 8-byte word holding the line, its state
// and its recency rank within the set, so a 64 KB cache costs 32 KB of host
// memory and a set of up to 8 ways fits one host cache line. The set index
// is a mask (set counts are powers of two), and `hit` looks a line up and
// marks it most-recently-used in one pass. A cache allocates its ways on
// its first install: processors that never touch shared memory (the
// B-tree's node processors, say) cost nothing.
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
  /// Width of the line tag a way holds: any line of a machine of up to
  /// 2^(kTagBits - 28) processors (coherent_memory.h ties it to kMaxProcs).
  static constexpr unsigned kTagBits = 36;
  /// Most ways a set can rank: a way's rank has the bits that its tag and
  /// its 2-bit state leave.
  static constexpr std::uint32_t kMaxAssociativity = std::uint32_t{1}
                                                     << (64 - kTagBits - 2);

  /// Throws std::invalid_argument unless the associativity is in
  /// [1, kMaxAssociativity], the size a positive multiple of
  /// kLineBytes * associativity, and the set count a power of two.
  explicit Cache(CacheParams params = {});

  /// Current state of `line` in this cache (kInvalid if absent).
  [[nodiscard]] LineState lookup(Line line) const;

  /// Does `line`'s state satisfy an access (Modified, or Shared for a
  /// read)? If so, also mark it most-recently-used.
  bool hit(Line line, bool exclusive);

  /// Install `line` with `state`, possibly evicting an LRU victim from the
  /// line's set. Touches LRU. `line` must not already be present. Throws
  /// std::invalid_argument if `line` is wider than kTagBits.
  std::optional<Eviction> install(Line line, LineState state);

  /// A grant's fill, in one scan of the line's set: an absent line is
  /// installed Modified (`exclusive`) or Shared, as `install` does; a
  /// present one turns Modified if `exclusive`, and is marked most recently
  /// used either way. Throws std::invalid_argument if `line` is wider than
  /// kTagBits.
  std::optional<Eviction> fill(Line line, bool exclusive);

  /// Change the state of a present line (e.g. S->M on upgrade, M->S on a
  /// directory fetch, ->I on invalidation). Returns false if absent (stale
  /// directory information; the caller acks anyway).
  bool set_state(Line line, LineState state);

  /// Mark a present line most-recently-used.
  void touch(Line line);

  [[nodiscard]] std::uint32_t num_sets() const { return params_.num_sets(); }
  [[nodiscard]] std::uint64_t occupancy() const { return present_; }

 private:
  // A way: the line in bits [0, kTagBits), its LineState in the next two
  // bits and its recency rank above them. The ranks of a set's ways are a
  // permutation of [0, associativity), 0 = most recently used; a way never
  // installed ranks below every way that was.
  using Way = std::uint64_t;
  static constexpr unsigned kStateShift = kTagBits;
  static constexpr unsigned kRankShift = kTagBits + 2;
  static constexpr Way kTagMask = (Way{1} << kTagBits) - 1;
  static constexpr Way kStateMask = Way{3} << kStateShift;
  static constexpr Way kKeyMask = kTagMask | kStateMask;

  [[nodiscard]] static Way key(Line line, LineState state) {
    return line | static_cast<Way>(state) << kStateShift;
  }
  [[nodiscard]] static LineState state_of(Way w) {
    return static_cast<LineState>((w & kStateMask) >> kStateShift);
  }
  [[nodiscard]] static std::uint32_t rank_of(Way w) {
    return static_cast<std::uint32_t>(w >> kRankShift);
  }

  /// The first way of `line`'s set, or null before the first install.
  [[nodiscard]] Way* set_of(Line line) {
    if (ways_.empty()) return nullptr;
    // Fold the home-processor bits (bit 28 up in a line address) into the
    // index: home regions are 4 GiB-aligned, so without this the first
    // lines of every region would all collide in set 0.
    const std::size_t set = (line ^ (line >> 24)) & set_mask_;
    return &ways_[set * params_.associativity];
  }
  /// `line`'s way, if it is present.
  [[nodiscard]] Way* find(Line line);
  /// Make `way` of `set` the most recently used.
  void promote(Way* set, Way* way);
  /// Allocate the ways, each invalid and way w of each set ranked w.
  void allocate_ways();

  CacheParams params_;
  std::uint64_t set_mask_ = 0;
  std::vector<Way> ways_;  // num_sets * associativity, set-major; empty
                           // until the first install
  std::uint64_t present_ = 0;
};

}  // namespace cm::shmem
