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

std::optional<Eviction> Cache::install(Line line, LineState state) {
  assert(state != LineState::kInvalid);
  assert(find(line) == nullptr && "line already present");
  if (line > kTagMask) {
    throw std::invalid_argument("Cache::install: line wider than kTagBits");
  }
  const std::uint32_t ways = params_.associativity;
  if (ways_.empty()) {
    // Every way starts invalid, way w of each set ranked w.
    const std::size_t sets = params_.num_sets();
    ways_.resize(sets * ways);
    Way* w = ways_.data();
    for (std::size_t set = 0; set < sets; ++set) {
      for (std::uint32_t rank = 0; rank < ways; ++rank) {
        *w++ = static_cast<Way>(rank) << kRankShift;
      }
    }
  }
  Way* const set = set_of(line);

  // The first invalid way, else the least recently used.
  Way* victim = nullptr;
  for (std::uint32_t w = 0; w < ways; ++w) {
    if ((set[w] & kStateMask) == 0) {
      victim = &set[w];
      break;
    }
    if (rank_of(set[w]) == ways - 1) victim = &set[w];
  }

  std::optional<Eviction> evicted;
  if (const LineState old = state_of(*victim); old != LineState::kInvalid) {
    evicted = Eviction{*victim & kTagMask, old == LineState::kModified};
    --present_;
  }
  *victim = (*victim & ~kKeyMask) | key(line, state);
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
