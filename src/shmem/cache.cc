#include "shmem/cache.h"

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
}

Cache::Way* Cache::find(Line line) {
  if (ways_.empty()) return nullptr;
  const std::size_t base =
      static_cast<std::size_t>(set_of(line)) * params_.associativity;
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    Way& way = ways_[base + w];
    if (way.state != LineState::kInvalid && way.line == line) return &way;
  }
  return nullptr;
}

const Cache::Way* Cache::find(Line line) const {
  return const_cast<Cache*>(this)->find(line);
}

LineState Cache::lookup(Line line) const {
  const Way* w = find(line);
  return w ? w->state : LineState::kInvalid;
}

std::optional<Eviction> Cache::install(Line line, LineState state) {
  assert(state != LineState::kInvalid);
  assert(find(line) == nullptr && "line already present");
  if (ways_.empty()) {
    ways_.resize(static_cast<std::size_t>(params_.num_sets()) *
                 params_.associativity);
  }
  const std::size_t base =
      static_cast<std::size_t>(set_of(line)) * params_.associativity;

  Way* victim = nullptr;
  for (std::uint32_t w = 0; w < params_.associativity; ++w) {
    Way& way = ways_[base + w];
    if (way.state == LineState::kInvalid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) victim = &way;
  }

  std::optional<Eviction> evicted;
  if (victim->state != LineState::kInvalid) {
    evicted = Eviction{victim->line, victim->state == LineState::kModified};
    --present_;
  }
  victim->line = line;
  victim->state = state;
  victim->lru = ++clock_;
  ++present_;
  return evicted;
}

bool Cache::set_state(Line line, LineState state) {
  Way* w = find(line);
  if (w == nullptr) return false;
  if (state == LineState::kInvalid) {
    --present_;
  }
  w->state = state;
  return true;
}

void Cache::touch(Line line) {
  Way* w = find(line);
  if (w != nullptr) w->lru = ++clock_;
}

}  // namespace cm::shmem
