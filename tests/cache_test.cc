#include "shmem/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "shmem/addr.h"

namespace cm::shmem {
namespace {

TEST(AddrHelpers, LineAndHomeExtraction) {
  GlobalHeap heap(8);
  const Addr a = heap.alloc(3, 100);
  EXPECT_EQ(home_of_addr(a), 3u);
  EXPECT_EQ(home_of_line(line_of(a)), 3u);
  EXPECT_EQ(a & (kLineBytes - 1), 0u);  // line-aligned
}

TEST(AddrHelpers, AllocationsDoNotShareLines) {
  GlobalHeap heap(4);
  const Addr a = heap.alloc(0, 1);
  const Addr b = heap.alloc(0, 1);
  EXPECT_NE(line_of(a), line_of(b));
}

TEST(AddrHelpers, AllocRejectsHomeOutsideTheMachine) {
  GlobalHeap heap(4);
  EXPECT_THROW((void)heap.alloc(4, 16), std::invalid_argument);
}

TEST(AddrHelpers, AllocRejectsAnExhaustedRegion) {
  GlobalHeap heap(2);
  const std::uint64_t region = std::uint64_t{1} << kHomeShift;
  EXPECT_THROW((void)heap.alloc(0, region + 1), std::invalid_argument);
  EXPECT_THROW((void)heap.alloc(0, ~std::uint64_t{0}), std::invalid_argument);
  (void)heap.alloc(0, region - 32);
  EXPECT_THROW((void)heap.alloc(0, 33), std::invalid_argument);
  const Addr last = heap.alloc(0, 32);  // fills the region exactly
  EXPECT_EQ(home_of_addr(last + 31), 0u);
  EXPECT_EQ(heap.used(0), region);
  EXPECT_THROW((void)heap.alloc(0, 0), std::invalid_argument);
  EXPECT_EQ(heap.used(1), 0u);  // other homes untouched
}

TEST(AddrHelpers, LinesTouched) {
  EXPECT_EQ(lines_touched(0, 0), 0u);
  EXPECT_EQ(lines_touched(0, 1), 1u);
  EXPECT_EQ(lines_touched(0, 16), 1u);
  EXPECT_EQ(lines_touched(0, 17), 2u);
  EXPECT_EQ(lines_touched(8, 16), 2u);  // straddles a boundary
  EXPECT_EQ(lines_touched(0, 160), 10u);
}

TEST(Cache, MissesWhenEmpty) {
  Cache c;
  EXPECT_EQ(c.lookup(123), LineState::kInvalid);
}

TEST(Cache, InstallThenHit) {
  Cache c;
  EXPECT_FALSE(c.install(123, LineState::kShared).has_value());
  EXPECT_EQ(c.lookup(123), LineState::kShared);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, SetStateTransitions) {
  Cache c;
  c.install(5, LineState::kShared);
  EXPECT_TRUE(c.set_state(5, LineState::kModified));
  EXPECT_EQ(c.lookup(5), LineState::kModified);
  EXPECT_TRUE(c.set_state(5, LineState::kInvalid));
  EXPECT_EQ(c.lookup(5), LineState::kInvalid);
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.set_state(999, LineState::kShared));  // absent line
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheParams{.size_bytes = 64, .associativity = 0}),
               std::invalid_argument);
  EXPECT_THROW(Cache(CacheParams{.size_bytes = 0, .associativity = 2}),
               std::invalid_argument);
  EXPECT_THROW(Cache(CacheParams{.size_bytes = 48, .associativity = 2}),
               std::invalid_argument);  // not a multiple of 16 * 2
  // line bytes * associativity wraps to 0 in 32-bit arithmetic
  EXPECT_THROW(Cache(CacheParams{.size_bytes = 64,
                                 .associativity = std::uint32_t{1} << 28}),
               std::invalid_argument);
  EXPECT_NO_THROW(Cache(CacheParams{.size_bytes = 48, .associativity = 3}));
}

TEST(Cache, GeometryMatchesPaper) {
  Cache c;  // defaults: 64 KB, 16-byte lines, 2-way
  EXPECT_EQ(c.num_sets(), 64u * 1024 / 16 / 2);
}

TEST(Cache, ConflictEvictsLruWay) {
  CacheParams p{.size_bytes = 64, .associativity = 2};  // 2 sets, 2 ways
  Cache c(p);
  // Lines 0, 2, 4 all map to set 0.
  c.install(0, LineState::kShared);
  c.install(2, LineState::kModified);
  c.touch(0);  // 2 is now LRU
  auto ev = c.install(4, LineState::kShared);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 2u);
  EXPECT_TRUE(ev->dirty);  // was Modified
  EXPECT_EQ(c.lookup(0), LineState::kShared);
  EXPECT_EQ(c.lookup(2), LineState::kInvalid);
  EXPECT_EQ(c.lookup(4), LineState::kShared);
}

TEST(Cache, CleanEvictionIsNotDirty) {
  CacheParams p{.size_bytes = 32, .associativity = 1};  // 2 sets, direct-mapped
  Cache c(p);
  c.install(0, LineState::kShared);
  auto ev = c.install(2, LineState::kShared);  // conflicts with 0
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 0u);
  EXPECT_FALSE(ev->dirty);
}

TEST(Cache, DisjointSetsDoNotConflict) {
  CacheParams p{.size_bytes = 64, .associativity = 2};  // 2 sets
  Cache c(p);
  EXPECT_FALSE(c.install(0, LineState::kShared).has_value());
  EXPECT_FALSE(c.install(1, LineState::kShared).has_value());  // set 1
  EXPECT_FALSE(c.install(2, LineState::kShared).has_value());  // set 0 way 2
  EXPECT_FALSE(c.install(3, LineState::kShared).has_value());
  EXPECT_EQ(c.occupancy(), 4u);
  EXPECT_TRUE(c.install(4, LineState::kShared).has_value());  // now full
}

// Property: a cache never holds more lines than its capacity, and occupancy
// equals installs minus evictions minus invalidations.
TEST(Cache, OccupancyNeverExceedsCapacity) {
  CacheParams p{.size_bytes = 256, .associativity = 2};  // 16 lines
  Cache c(p);
  std::uint64_t evictions = 0;
  for (Line l = 0; l < 1000; ++l) {
    if (c.install(l, LineState::kShared)) ++evictions;
    EXPECT_LE(c.occupancy(), 16u);
  }
  EXPECT_EQ(c.occupancy(), 1000 - evictions);
}

}  // namespace
}  // namespace cm::shmem
