#include "shmem/cache.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace cm::shmem {

Cache::Cache(CacheParams params) : params_(params) {
  const std::uint64_t set_bytes =
      std::uint64_t{kLineBytes} * params_.associativity;
  if (set_bytes == 0 || params_.size_bytes == 0 ||
      params_.size_bytes % set_bytes != 0) {
    throw std::invalid_argument(
        "CacheParams: size_bytes must be a positive multiple of "
        "line bytes * associativity");
  }
  if (params_.associativity > kMaxAssociativity) {
    throw std::invalid_argument(
        "CacheParams: associativity above Cache::kMaxAssociativity");
  }
  if (!std::has_single_bit(params_.num_sets())) {
    throw std::invalid_argument(
        "CacheParams: the set count must be a power of two");
  }
  set_mask_ = params_.num_sets() - 1;
}

Cache::Way* Cache::find(Line line) {
  Way* const set = set_of(line);
  if (set == nullptr) return nullptr;
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    if ((set[w] & kTagMask) == line && (set[w] & kStateMask) != 0) {
      return &set[w];
    }
  }
  return nullptr;
}

void Cache::promote(Way* set, Way* way) {
  const std::uint32_t rank = rank_of(*way);
  if (rank == 0) return;
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    if (rank_of(set[w]) < rank) set[w] += Way{1} << kRankShift;
  }
  *way &= kKeyMask;
}

LineState Cache::lookup(Line line) const {
  const Way* w = const_cast<Cache*>(this)->find(line);
  return w ? state_of(*w) : LineState::kInvalid;
}

bool Cache::hit(Line line, bool exclusive) {
  Way* const set = set_of(line);
  // A line wider than the tag would alias a present one in its state bits.
  if (set == nullptr || line > kTagMask) return false;
  const Way modified = key(line, LineState::kModified);
  const Way shared = key(line, LineState::kShared);
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    const Way k = set[w] & kKeyMask;
    if (k == modified || (!exclusive && k == shared)) {
      promote(set, &set[w]);
      return true;
    }
  }
  return false;
}

void Cache::allocate_ways() {
  const std::uint32_t ways = params_.associativity;
  const std::size_t sets = params_.num_sets();
  ways_.resize(sets * ways);
  Way* w = ways_.data();
  for (std::size_t set = 0; set < sets; ++set) {
    for (std::uint32_t rank = 0; rank < ways; ++rank) {
      *w++ = static_cast<Way>(rank) << kRankShift;
    }
  }
}

std::optional<Eviction> Cache::install(Line line, LineState state) {
  assert(state != LineState::kInvalid);
  assert(find(line) == nullptr && "line already present");
  return fill(line, state == LineState::kModified);
}

std::optional<Eviction> Cache::fill(Line line, bool exclusive) {
  if (line > kTagMask) {
    throw std::invalid_argument("Cache: line wider than kTagBits");
  }
  if (ways_.empty()) allocate_ways();
  Way* const set = set_of(line);
  const std::uint32_t ways = params_.associativity;

  // The line's way if present; else the first invalid way, else the least
  // recently used.
  Way* invalid = nullptr;
  Way* lru = nullptr;
  for (std::uint32_t w = 0; w < ways; ++w) {
    const Way k = set[w];
    if ((k & kStateMask) == 0) {
      if (invalid == nullptr) invalid = &set[w];
    } else if ((k & kTagMask) == line) {
      if (exclusive) set[w] = (k & ~kStateMask) | key(0, LineState::kModified);
      promote(set, &set[w]);
      return std::nullopt;
    } else if (rank_of(k) == ways - 1) {
      lru = &set[w];
    }
  }
  Way* const victim = invalid != nullptr ? invalid : lru;

  std::optional<Eviction> evicted;
  if (const LineState old = state_of(*victim); old != LineState::kInvalid) {
    evicted = Eviction{*victim & kTagMask, old == LineState::kModified};
    --present_;
  }
  *victim = (*victim & ~kKeyMask) |
            key(line, exclusive ? LineState::kModified : LineState::kShared);
  promote(set, victim);
  ++present_;
  return evicted;
}

bool Cache::set_state(Line line, LineState state) {
  Way* w = find(line);
  if (w == nullptr) return false;
  if (state == LineState::kInvalid) {
    --present_;
  }
  *w = (*w & ~kStateMask) | static_cast<Way>(state) << kStateShift;
  return true;
}

void Cache::touch(Line line) {
  Way* w = find(line);
  if (w != nullptr) promote(set_of(line), w);
}

}  // namespace cm::shmem
