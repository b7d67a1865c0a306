#include "shmem/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "shmem/addr.h"
#include "sim/rng.h"

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
  EXPECT_THROW(Cache(CacheParams{.size_bytes = 96, .associativity = 2}),
               std::invalid_argument);  // 3 sets: not a power of two
  EXPECT_NO_THROW(Cache(CacheParams{.size_bytes = 48, .associativity = 3}));
}

TEST(Cache, RejectsWhatAWayCannotHold) {
  // More ways in a set than a way's rank field can order.
  const std::uint32_t ways = Cache::kMaxAssociativity * 2;
  EXPECT_THROW(Cache(CacheParams{.size_bytes = ways * kLineBytes,
                                 .associativity = ways}),
               std::invalid_argument);
  // A line wider than the tag; the widest line that fits installs.
  Cache c;
  const Line widest = (Line{1} << Cache::kTagBits) - 1;
  EXPECT_THROW((void)c.install(widest + 1, LineState::kShared),
               std::invalid_argument);
  EXPECT_FALSE(c.install(widest, LineState::kShared).has_value());
  EXPECT_EQ(c.lookup(widest), LineState::kShared);
  EXPECT_EQ(c.lookup(widest + 1), LineState::kInvalid);
  EXPECT_FALSE(c.hit(widest + 1, false));
  // Same tag bits, one bit above the tag: the Shared line must not alias.
  EXPECT_FALSE(c.hit(widest | Line{1} << Cache::kTagBits, false));
  EXPECT_EQ(c.occupancy(), 1u);
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

TEST(Cache, FourWayLruEvictsInRecencyOrder) {
  Cache c(CacheParams{.size_bytes = 64, .associativity = 4});  // one set
  for (Line l = 0; l < 4; ++l) c.install(l, LineState::kShared);
  c.touch(0);                    // most recent first: 0 3 2 1
  EXPECT_TRUE(c.hit(2, false));  // 2 0 3 1
  EXPECT_FALSE(c.hit(3, true));  // Shared cannot serve a write: no touch
  const Line evicted[] = {1, 3, 0, 2};
  for (Line i = 0; i < 4; ++i) {
    const auto ev = c.install(4 + i, LineState::kShared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, evicted[i]);
  }
}

TEST(Cache, FillUpgradesOrTouchesAPresentLineAndInstallsAnAbsentOne) {
  Cache c(CacheParams{.size_bytes = 48, .associativity = 3});  // one set
  // Absent: installed like install, Shared or Modified.
  EXPECT_FALSE(c.fill(0, false).has_value());
  EXPECT_FALSE(c.fill(1, true).has_value());
  EXPECT_FALSE(c.fill(2, false).has_value());  // most recent first: 2 1 0
  EXPECT_EQ(c.lookup(0), LineState::kShared);
  EXPECT_EQ(c.lookup(1), LineState::kModified);
  // Present: a write's fill turns Shared to Modified in place, a read's
  // keeps the state; both mark the line most recently used.
  EXPECT_FALSE(c.fill(0, true).has_value());   // 0 2 1
  EXPECT_FALSE(c.fill(1, false).has_value());  // 1 0 2
  EXPECT_EQ(c.lookup(0), LineState::kModified);
  EXPECT_EQ(c.lookup(1), LineState::kModified);
  EXPECT_EQ(c.occupancy(), 3u);
  const auto ev = c.fill(3, false);  // evicts the LRU line, 2
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 2u);
  EXPECT_FALSE(ev->dirty);
  EXPECT_THROW((void)c.fill(Line{1} << Cache::kTagBits, false),
               std::invalid_argument);
}

TEST(Cache, InvalidatedWayIsReusedBeforeAnyEviction) {
  Cache c(CacheParams{.size_bytes = 48, .associativity = 3});  // one set
  c.install(0, LineState::kShared);
  c.install(1, LineState::kModified);
  c.install(2, LineState::kShared);  // most recent first: 2 1 0
  EXPECT_TRUE(c.set_state(1, LineState::kInvalid));
  EXPECT_EQ(c.occupancy(), 2u);
  EXPECT_FALSE(c.install(3, LineState::kShared).has_value());  // 3 2 0
  EXPECT_EQ(c.lookup(1), LineState::kInvalid);
  const Line evicted[] = {0, 2, 3};
  for (Line i = 0; i < 3; ++i) {
    const auto ev = c.install(10 + i, LineState::kShared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, evicted[i]);
    EXPECT_FALSE(ev->dirty);
  }
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

// ---------------------------------------------------------------------------
// Differential test: Cache against the plainest model of its specification.

/// Each set keeps its present lines, most recently used first.
class ReferenceCache {
 public:
  explicit ReferenceCache(CacheParams p)
      : ways_(p.associativity), sets_(p.num_sets()) {}

  [[nodiscard]] LineState lookup(Line l) const {
    for (const Entry& e : sets_[set_of(l)]) {
      if (e.line == l) return e.state;
    }
    return LineState::kInvalid;
  }

  bool hit(Line l, bool exclusive) {
    const LineState st = lookup(l);
    if (st != LineState::kModified &&
        (exclusive || st != LineState::kShared)) {
      return false;
    }
    touch(l);
    return true;
  }

  std::optional<Eviction> install(Line l, LineState state) {
    std::vector<Entry>& set = sets_[set_of(l)];
    std::optional<Eviction> ev;
    if (set.size() == ways_) {
      ev = Eviction{set.back().line, set.back().state == LineState::kModified};
      set.pop_back();
    }
    set.insert(set.begin(), Entry{l, state});
    return ev;
  }

  bool set_state(Line l, LineState state) {
    std::vector<Entry>& set = sets_[set_of(l)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line != l) continue;
      if (state == LineState::kInvalid) {
        set.erase(it);
      } else {
        it->state = state;
      }
      return true;
    }
    return false;
  }

  void touch(Line l) {
    std::vector<Entry>& set = sets_[set_of(l)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line != l) continue;
      const Entry e = *it;
      set.erase(it);
      set.insert(set.begin(), e);
      return;
    }
  }

  [[nodiscard]] std::uint64_t occupancy() const {
    std::uint64_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return n;
  }

 private:
  struct Entry {
    Line line;
    LineState state;
  };
  [[nodiscard]] std::size_t set_of(Line l) const {
    return (l ^ (l >> 24)) % sets_.size();
  }

  std::size_t ways_;
  std::vector<std::vector<Entry>> sets_;
};

class CacheAgainstReference : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(CacheAgainstReference, AgreesOnEveryLookupEvictionAndOccupancy) {
  const std::uint32_t ways = GetParam();
  const CacheParams p{.size_bytes = 4 * kLineBytes * ways,
                      .associativity = ways};  // 4 sets
  Cache c(p);
  ReferenceCache ref(p);
  // Twelve lines in each of four home regions, up to the tag's top bit:
  // lines that differ only in their home bits meet in one set.
  std::vector<Line> lines;
  for (const Line home : {0, 1, 64, 255}) {
    for (Line off = 0; off < 12; ++off) {
      lines.push_back(home << (kHomeShift - kLineShift) | off);
    }
  }
  sim::Rng rng(0x5eed + ways);
  for (int step = 0; step < 20'000; ++step) {
    const Line l = lines[rng.below(lines.size())];
    switch (rng.below(4)) {
      case 0:
      case 1:
        if (ref.lookup(l) == LineState::kInvalid) {
          const LineState st =
              rng.chance(0.5) ? LineState::kShared : LineState::kModified;
          const auto got = c.install(l, st);
          const auto want = ref.install(l, st);
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (want) {
            ASSERT_EQ(got->line, want->line) << "step " << step;
            ASSERT_EQ(got->dirty, want->dirty) << "step " << step;
          }
        } else {
          const bool exclusive = rng.chance(0.5);
          ASSERT_EQ(c.hit(l, exclusive), ref.hit(l, exclusive))
              << "step " << step;
        }
        break;
      case 2:
        c.touch(l);
        ref.touch(l);
        break;
      default: {
        const auto st = static_cast<LineState>(rng.below(3));
        ASSERT_EQ(c.set_state(l, st), ref.set_state(l, st)) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(c.lookup(l), ref.lookup(l)) << "step " << step;
    ASSERT_EQ(c.occupancy(), ref.occupancy()) << "step " << step;
  }
  for (const Line l : lines) EXPECT_EQ(c.lookup(l), ref.lookup(l)) << l;
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheAgainstReference,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace cm::shmem
