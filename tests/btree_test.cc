#include "apps/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace cm::apps {

/// Reaches inside a tree to break one invariant at a time.
class BTreeTestPeer {
 public:
  explicit BTreeTestPeer(DistributedBTree& bt) : bt_(&bt) {}

  /// Ids of the nodes on `level` (0 = leaves), left to right.
  [[nodiscard]] std::vector<std::uint32_t> level(unsigned level) const {
    std::uint32_t cur = bt_->root_;
    while (bt_->nodes_[cur].level > level) {
      cur = static_cast<std::uint32_t>(bt_->nodes_[cur].payload.front());
    }
    std::vector<std::uint32_t> ids;
    for (; cur != DistributedBTree::kNone; cur = bt_->nodes_[cur].right) {
      ids.push_back(cur);
    }
    return ids;
  }
  std::vector<std::uint64_t>& keys(std::uint32_t id) {
    return bt_->nodes_[id].maxkey;
  }
  std::vector<std::uint64_t>& payload(std::uint32_t id) {
    return bt_->nodes_[id].payload;
  }
  std::uint64_t& high_key(std::uint32_t id) {
    return bt_->nodes_[id].high_key;
  }
  unsigned& level_of(std::uint32_t id) { return bt_->nodes_[id].level; }
  /// A fresh, empty leaf that no level links to.
  std::uint32_t orphan_leaf() { return bt_->alloc_node(true, 0); }
  /// audit()'s one walk, null where it does not vouch for the tree.
  [[nodiscard]] std::optional<DistributedBTree::Audit> walk() const {
    return bt_->audit_walk();
  }

 private:
  DistributedBTree* bt_;
};

namespace {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

/// A constant-latency machine with a full-map coherent memory, so that one
/// tree serves every mechanism.
struct World : Stack {
  DistributedBTree bt;

  explicit World(DistributedBTree::Params p, ProcId nprocs = 16)
      : Stack(nprocs, bare_config(Mechanism::kSharedMemory)),
        bt(rt, mem.get(), p) {}
};

DistributedBTree::Params small_params(unsigned max_entries = 4,
                                      bool repl = false) {
  DistributedBTree::Params p;
  p.max_entries = max_entries;
  p.node_procs = 8;
  p.seed = 42;
  p.replication = repl;
  return p;
}

std::vector<std::uint64_t> make_keys(std::size_t n, std::uint64_t stride = 2) {
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = 1 + i * stride;
  return keys;
}

Task<> do_lookup(World* w, Mechanism mech, ProcId home, std::uint64_t key,
                 bool* found, std::uint64_t* val = nullptr) {
  Ctx ctx{&w->rt, home};
  *found = co_await w->bt.lookup(ctx, mech, key, val);
}

Task<> do_insert(World* w, Mechanism mech, ProcId home, std::uint64_t key,
                 std::uint64_t value, bool* fresh = nullptr) {
  Ctx ctx{&w->rt, home};
  const bool f = co_await w->bt.insert(ctx, mech, key, value);
  if (fresh != nullptr) *fresh = f;
}

/// Awaits `op`, recording whether it threw std::invalid_argument.
Task<> await_rejection(Task<bool> op, bool* threw) {
  try {
    (void)co_await std::move(op);
  } catch (const std::invalid_argument&) {
    *threw = true;
  }
}

constexpr std::uint64_t kReservedKey = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// Construction / host-level logic
// ---------------------------------------------------------------------------

TEST(BTreeBuild, EmptyTreeIsAValidLeaf) {
  World w(small_params());
  EXPECT_EQ(w.bt.height(), 1u);
  EXPECT_EQ(w.bt.num_keys(), 0u);
  EXPECT_TRUE(w.bt.check_invariants());
}

TEST(BTreeBuild, BulkLoadPreservesKeysAndInvariants) {
  World w(small_params());
  const auto keys = make_keys(100);
  w.bt.bulk_load(keys);
  std::string why;
  EXPECT_TRUE(w.bt.check_invariants(&why)) << why;
  EXPECT_EQ(w.bt.keys_host(), keys);
  EXPECT_GT(w.bt.height(), 1u);
  for (const auto k : keys) EXPECT_TRUE(w.bt.contains_host(k));
  EXPECT_FALSE(w.bt.contains_host(0));
  EXPECT_FALSE(w.bt.contains_host(keys.back() + 1));
}

TEST(BTreeBuild, PaperGeometryRootHasFewChildren) {
  // 10,000 keys, branching <= 100, 2/3 fill: the paper observes a root with
  // three children ("the root node has only three children").
  DistributedBTree::Params p;
  p.max_entries = 100;
  p.node_procs = 8;
  World w(p);
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i + 2;
  w.bt.bulk_load(keys);
  EXPECT_TRUE(w.bt.check_invariants());
  EXPECT_EQ(w.bt.height(), 3u);
  EXPECT_EQ(w.bt.root_children(), 3u);
}

TEST(BTreeBuild, SmallBranchingGivesDeeperTreeWithWiderRoot) {
  // The §4.2 ablation: branching <= 10 yields a root with more children.
  DistributedBTree::Params p;
  p.max_entries = 10;
  p.node_procs = 8;
  World w(p);
  std::vector<std::uint64_t> keys(10'000);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = 2 * i + 2;
  w.bt.bulk_load(keys);
  EXPECT_TRUE(w.bt.check_invariants());
  EXPECT_GT(w.bt.height(), 3u);
  EXPECT_GE(w.bt.root_children(), 4u);
}

// ---------------------------------------------------------------------------
// Rejected configurations: a typed error in every build type
// ---------------------------------------------------------------------------

TEST(BTreeValidation, RejectsZeroMaxEntries) {
  DistributedBTree::Params p = small_params();
  p.max_entries = 0;
  EXPECT_THROW(World w(p), std::invalid_argument);
}

TEST(BTreeValidation, RejectsZeroNodeProcs) {
  DistributedBTree::Params p = small_params();
  p.node_procs = 0;
  EXPECT_THROW(World w(p), std::invalid_argument);
}

TEST(BTreeValidation, BulkLoadRejectsKeysThatDoNotStrictlyIncrease) {
  World w(small_params());
  EXPECT_THROW(w.bt.bulk_load({1, 5, 3}), std::invalid_argument);
  EXPECT_THROW(w.bt.bulk_load({1, 3, 3, 5}), std::invalid_argument);
  // A rejected load leaves the fresh tree as it was.
  EXPECT_EQ(w.bt.num_nodes(), 1u);
  EXPECT_TRUE(w.bt.check_invariants());
  w.bt.bulk_load(make_keys(20));
  EXPECT_EQ(w.bt.keys_host(), make_keys(20));
}

TEST(BTreeValidation, BulkLoadRejectsTheReservedMaxKey) {
  World w(small_params());
  EXPECT_THROW(w.bt.bulk_load({1, 2, ~std::uint64_t{0}}),
               std::invalid_argument);
  EXPECT_EQ(w.bt.num_keys(), 0u);
  w.bt.bulk_load({1, 2, ~std::uint64_t{0} - 1});
  EXPECT_EQ(w.bt.num_keys(), 3u);
  EXPECT_TRUE(w.bt.check_invariants());
}

TEST(BTreeValidation, RejectsBulkFillOutsideZeroToOne) {
  for (const double fill :
       {1.5, 0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    DistributedBTree::Params p = small_params(10);
    p.bulk_fill = fill;
    EXPECT_THROW(World w(p), std::invalid_argument) << fill;
  }
  // The closed end is a full packing: 1,000 keys in 100 nodes of 10.
  DistributedBTree::Params p = small_params(10);
  p.bulk_fill = 1.0;
  World w(p);
  w.bt.bulk_load(make_keys(1000));
  EXPECT_TRUE(w.bt.check_invariants());
  EXPECT_EQ(w.bt.num_keys(), 1000u);
}

TEST(BTreeValidation, InsertRejectsTheReservedMaxKey) {
  for (const Mechanism mech :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kSharedMemory}) {
    World w(small_params());
    w.bt.bulk_load(make_keys(40));
    const std::uint64_t digest = w.bt.digest_host();
    Ctx ctx{&w.rt, 12};
    bool threw = false;
    sim::detach(await_rejection(w.bt.insert(ctx, mech, kReservedKey, 1),
                                &threw));
    w.eng.run();
    EXPECT_TRUE(threw);
    // Rejected before any simulated step.
    EXPECT_EQ(w.eng.events_executed(), 0u);
    EXPECT_EQ(w.eng.now(), 0u);
    EXPECT_EQ(w.bt.num_keys(), 40u);
    EXPECT_EQ(w.bt.digest_host(), digest);
    EXPECT_FALSE(w.bt.contains_host(kReservedKey));
    EXPECT_TRUE(w.bt.check_invariants());
  }
}

Task<> lookup_in(DistributedBTree* bt, core::Runtime* rt, Mechanism mech,
                 std::uint64_t key, bool* found) {
  Ctx ctx{rt, 12};
  *found = co_await bt->lookup(ctx, mech, key);
}

TEST(BTreeValidation, SharedMemoryOperationsNeedACoherentMemory) {
  World w(small_params());
  DistributedBTree bare(w.rt, /*mem=*/nullptr, small_params());
  bare.bulk_load(make_keys(20));
  Ctx ctx{&w.rt, 12};
  constexpr Mechanism kSm = Mechanism::kSharedMemory;
  bool threw[3] = {false, false, false};
  sim::detach(await_rejection(bare.lookup(ctx, kSm, 3), &threw[0]));
  sim::detach(await_rejection(bare.insert(ctx, kSm, 4, 4), &threw[1]));
  sim::detach(await_rejection(bare.remove(ctx, kSm, 3), &threw[2]));
  w.eng.run();
  EXPECT_TRUE(threw[0]);
  EXPECT_TRUE(threw[1]);
  EXPECT_TRUE(threw[2]);
  EXPECT_EQ(w.eng.events_executed(), 0u);
  EXPECT_EQ(bare.keys_host(), make_keys(20));
  // Message passing needs no memory.
  bool found = false;
  sim::detach(lookup_in(&bare, &w.rt, Mechanism::kRpc, 3, &found));
  w.eng.run();
  EXPECT_TRUE(found);
}

TEST(BTreeValidation, BulkLoadRejectsATreeThatIsNotFresh) {
  World loaded(small_params());
  loaded.bt.bulk_load(make_keys(20));
  EXPECT_THROW(loaded.bt.bulk_load(make_keys(20)), std::invalid_argument);
  EXPECT_EQ(loaded.bt.keys_host(), make_keys(20));

  World grown(small_params());
  sim::detach(do_insert(&grown, Mechanism::kRpc, 12, 5, 5));
  grown.eng.run();
  EXPECT_THROW(grown.bt.bulk_load(make_keys(20)), std::invalid_argument);
  EXPECT_EQ(grown.bt.keys_host(), (std::vector<std::uint64_t>{5}));
}

// ---------------------------------------------------------------------------
// Simulated operations, single-threaded
// ---------------------------------------------------------------------------

class BTreeMechanism : public ::testing::TestWithParam<Mechanism> {};

TEST_P(BTreeMechanism, LookupAgreesWithOracle) {
  World w(small_params());
  w.bt.bulk_load(make_keys(60));
  for (std::uint64_t k = 0; k < 130; ++k) {
    bool found = false;
    std::uint64_t val = 0;
    sim::detach(do_lookup(&w, GetParam(), 12, k, &found, &val));
    w.eng.run();
    EXPECT_EQ(found, w.bt.contains_host(k)) << "key " << k;
    if (found) {
      EXPECT_EQ(val, k);
    }
  }
}

TEST_P(BTreeMechanism, InsertGrowsTreeThroughSplits) {
  World w(small_params(4));
  std::set<std::uint64_t> oracle;
  sim::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t k = rng.below(10'000);
    bool fresh = false;
    sim::detach(do_insert(&w, GetParam(), 12, k, k, &fresh));
    w.eng.run();
    EXPECT_EQ(fresh, oracle.insert(k).second);
  }
  std::string why;
  EXPECT_TRUE(w.bt.check_invariants(&why)) << why;
  const auto keys = w.bt.keys_host();
  EXPECT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
  EXPECT_GT(w.bt.height(), 2u);  // fanout 4 + 300 keys forces root splits
}

TEST_P(BTreeMechanism, AscendingInsertsStressRightmostPath) {
  World w(small_params(4));
  for (std::uint64_t k = 1; k <= 200; ++k) {
    sim::detach(do_insert(&w, GetParam(), 9, k * 10, k));
    w.eng.run();
  }
  EXPECT_TRUE(w.bt.check_invariants());
  EXPECT_EQ(w.bt.num_keys(), 200u);
}

TEST_P(BTreeMechanism, DuplicateInsertOverwritesValue) {
  World w(small_params());
  w.bt.bulk_load(make_keys(20));
  bool fresh = true;
  sim::detach(do_insert(&w, GetParam(), 9, 5, 999, &fresh));
  w.eng.run();
  EXPECT_FALSE(fresh);
  bool found = false;
  std::uint64_t val = 0;
  sim::detach(do_lookup(&w, GetParam(), 9, 5, &found, &val));
  w.eng.run();
  EXPECT_TRUE(found);
  EXPECT_EQ(val, 999u);
  EXPECT_EQ(w.bt.num_keys(), 20u);
}

TEST_P(BTreeMechanism, SplitsCascadeThroughATallTree) {
  // Two entries per node and 1,200 keys: 600 leaves under ten binary
  // levels. An insert into the first leaf splits every node on its path,
  // more nodes than an insert's path keeps inline, and then the root.
  World w(small_params(2));
  w.bt.bulk_load(make_keys(1200));
  ASSERT_EQ(w.bt.height(), 11u);
  bool fresh = false;
  sim::detach(do_insert(&w, GetParam(), 12, 2, 2, &fresh));
  w.eng.run();
  EXPECT_TRUE(fresh);
  EXPECT_EQ(w.bt.height(), 12u);
  std::string why;
  EXPECT_TRUE(w.bt.check_invariants(&why)) << why;
  EXPECT_EQ(w.bt.num_keys(), 1201u);
  bool found = false;
  std::uint64_t value = 0;
  sim::detach(do_lookup(&w, GetParam(), 13, 2, &found, &value));
  w.eng.run();
  EXPECT_TRUE(found);
  EXPECT_EQ(value, 2u);
}

INSTANTIATE_TEST_SUITE_P(All, BTreeMechanism,
                         ::testing::Values(Mechanism::kRpc,
                                           Mechanism::kMigration,
                                           Mechanism::kSharedMemory,
                                           Mechanism::kObjectMigration,
                                           Mechanism::kThreadMigration));

Task<> do_remove(World* w, Mechanism mech, ProcId home, std::uint64_t key,
                 bool* removed) {
  Ctx ctx{&w->rt, home};
  *removed = co_await w->bt.remove(ctx, mech, key);
}

TEST_P(BTreeMechanism, RemoveDeletesExactlyThePresentKeys) {
  World w(small_params());
  w.bt.bulk_load(make_keys(40));
  bool r = false;
  sim::detach(do_remove(&w, GetParam(), 12, 5, &r));  // present
  w.eng.run();
  EXPECT_TRUE(r);
  sim::detach(do_remove(&w, GetParam(), 12, 5, &r));  // already gone
  w.eng.run();
  EXPECT_FALSE(r);
  sim::detach(do_remove(&w, GetParam(), 12, 4, &r));  // never existed
  w.eng.run();
  EXPECT_FALSE(r);
  EXPECT_EQ(w.bt.num_keys(), 39u);
  EXPECT_FALSE(w.bt.contains_host(5));
  EXPECT_TRUE(w.bt.check_invariants());
}

TEST_P(BTreeMechanism, InsertRemoveRoundTrip) {
  World w(small_params(4));
  std::set<std::uint64_t> oracle;
  sim::Rng rng(21);
  for (int i = 0; i < 250; ++i) {
    const std::uint64_t k = 1 + rng.below(400);
    if (rng.chance(0.6)) {
      bool fresh = false;
      sim::detach(do_insert(&w, GetParam(), 12, k, k, &fresh));
      w.eng.run();
      EXPECT_EQ(fresh, oracle.insert(k).second);
    } else {
      bool removed = false;
      sim::detach(do_remove(&w, GetParam(), 12, k, &removed));
      w.eng.run();
      EXPECT_EQ(removed, oracle.erase(k) > 0);
    }
  }
  std::string why;
  ASSERT_TRUE(w.bt.check_invariants(&why)) << why;
  const auto keys = w.bt.keys_host();
  EXPECT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
}

TEST(BTreeRemove, CanEmptyTheTree) {
  World w(small_params(4));
  const auto keys = make_keys(30);
  w.bt.bulk_load(keys);
  bool r = false;
  for (const auto k : keys) {
    sim::detach(do_remove(&w, Mechanism::kMigration, 12, k, &r));
    w.eng.run();
    EXPECT_TRUE(r);
  }
  EXPECT_EQ(w.bt.num_keys(), 0u);
  EXPECT_TRUE(w.bt.check_invariants());
  // The emptied tree still accepts new keys.
  sim::detach(do_insert(&w, Mechanism::kMigration, 12, 7, 7));
  w.eng.run();
  EXPECT_TRUE(w.bt.contains_host(7));
}

// ---------------------------------------------------------------------------
// Concurrency properties
// ---------------------------------------------------------------------------

Task<> op_stream(World* w, Mechanism mech, ProcId home, std::uint64_t seed,
                 int nops, std::uint64_t key_space,
                 std::set<std::uint64_t>* inserted, int* bad_lookups) {
  Ctx ctx{&w->rt, home};
  sim::Rng rng(seed);
  for (int i = 0; i < nops; ++i) {
    const std::uint64_t key = 1 + rng.below(key_space);
    if (rng.chance(0.5)) {
      (void)co_await w->bt.insert(ctx, mech, key, key);
      inserted->insert(key);
    } else {
      std::uint64_t val = 0;
      const bool found = co_await w->bt.lookup(ctx, mech, key, &val);
      if (found && val != key) ++*bad_lookups;
    }
  }
}

TEST(BTreeInspection, DigestSeesContentsNotShape) {
  // The same pairs in two shapes: bulk-loaded into wide nodes, and inserted
  // one by one, in a scrambled order, into narrow ones that split.
  const std::vector<std::uint64_t> keys = make_keys(60);
  World wide(small_params(16));
  wide.bt.bulk_load(keys);
  World narrow(small_params(3));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t k = keys[(i * 37) % keys.size()];
    sim::detach(do_insert(&narrow, Mechanism::kRpc, 12, k, k));
    narrow.eng.run();
  }
  ASSERT_EQ(narrow.bt.keys_host(), keys);
  EXPECT_NE(narrow.bt.num_nodes(), wide.bt.num_nodes());
  EXPECT_EQ(narrow.bt.digest_host(), wide.bt.digest_host());
  // One value changes: so does the digest. Restored, it matches again.
  sim::detach(do_insert(&narrow, Mechanism::kRpc, 12, 31, 32));
  narrow.eng.run();
  EXPECT_NE(narrow.bt.digest_host(), wide.bt.digest_host());
  sim::detach(do_insert(&narrow, Mechanism::kRpc, 12, 31, 31));
  narrow.eng.run();
  EXPECT_EQ(narrow.bt.digest_host(), wide.bt.digest_host());
}

// ---------------------------------------------------------------------------
// check_invariants: each violation, planted in a valid tree, is reported
// ---------------------------------------------------------------------------

/// A valid three-level tree: 40 keys in 10 leaves of 4, under 3 internal
/// nodes and the root.
class BTreeInvariants : public ::testing::Test {
 protected:
  BTreeInvariants() : w_(small_params(6)), peer_(w_.bt) {
    w_.bt.bulk_load(make_keys(40));
  }
  void SetUp() override {
    ASSERT_EQ(w_.bt.height(), 3u);
    ASSERT_EQ(peer_.level(0).size(), 10u);
    ASSERT_EQ(peer_.level(1).size(), 3u);
    ASSERT_EQ(violation(), "");
  }
  /// check_invariants' message, or "" if the tree is valid.
  std::string violation() const {
    std::string why;
    return w_.bt.check_invariants(&why) ? "" : why;
  }
  std::uint32_t leaf(std::size_t i) const { return peer_.level(0).at(i); }
  std::uint32_t inner(std::size_t i) const { return peer_.level(1).at(i); }
  static std::string at(std::uint32_t id) { return std::to_string(id); }

  World w_;
  BTreeTestPeer peer_;
};

TEST_F(BTreeInvariants, EntryArraysOfDifferentLengths) {
  peer_.payload(leaf(2)).pop_back();
  EXPECT_EQ(violation(), "entry arrays disagree at node " + at(leaf(2)));
}

TEST_F(BTreeInvariants, NodeOverCapacity) {
  // max_entries + 2 entries, still sorted.
  const std::uint32_t l = leaf(2);
  for (std::uint64_t k = 1; k <= 4; ++k) {
    peer_.keys(l).push_back(peer_.keys(l).back() + 1);
    peer_.payload(l).push_back(k);
  }
  EXPECT_EQ(violation(), "node over capacity at " + at(l));
}

TEST_F(BTreeInvariants, UnsortedNode) {
  std::vector<std::uint64_t>& k = peer_.keys(leaf(2));
  std::swap(k[1], k[2]);
  EXPECT_EQ(violation(), "unsorted node " + at(leaf(2)));
}

TEST_F(BTreeInvariants, DuplicateBound) {
  std::vector<std::uint64_t>& k = peer_.keys(leaf(2));
  k[2] = k[1];
  EXPECT_EQ(violation(), "duplicate bound in node " + at(leaf(2)));
}

TEST_F(BTreeInvariants, UnsortedIsReportedBeforeAnEarlierDuplicate) {
  std::vector<std::uint64_t>& k = peer_.keys(leaf(2));
  k[1] = k[0];  // a duplicate first, then a descent
  std::swap(k[2], k[3]);
  EXPECT_EQ(violation(), "unsorted node " + at(leaf(2)));
}

TEST_F(BTreeInvariants, EntryAboveTheHighKey) {
  const std::uint32_t l = leaf(2);
  peer_.high_key(l) = peer_.keys(l).back() - 1;
  EXPECT_EQ(violation(), "entry exceeds high key at node " + at(l));
}

TEST_F(BTreeInvariants, InternalLastBoundBelowTheHighKey) {
  const std::uint32_t n = inner(0);
  peer_.high_key(n) = peer_.keys(n).back() + 1;
  EXPECT_EQ(violation(), "internal last bound != high key at " + at(n));
}

TEST_F(BTreeInvariants, RaggedLevel) {
  peer_.level_of(leaf(5)) = 1;
  EXPECT_EQ(violation(), "ragged level");
}

TEST_F(BTreeInvariants, CrossNodeOrder) {
  peer_.keys(leaf(3)).front() = peer_.keys(leaf(2)).back();
  EXPECT_EQ(violation(), "cross-node order violation");
}

TEST_F(BTreeInvariants, EmptyLeafKeepsTheLevelInOrder) {
  peer_.keys(leaf(3)).clear();
  peer_.payload(leaf(3)).clear();
  EXPECT_EQ(violation(), "");
}

TEST_F(BTreeInvariants, CrossNodeOrderAcrossAnEmptyLeaf) {
  peer_.keys(leaf(3)).clear();
  peer_.payload(leaf(3)).clear();
  peer_.keys(leaf(4)).front() = peer_.keys(leaf(2)).back();
  EXPECT_EQ(violation(), "cross-node order violation");
}

TEST_F(BTreeInvariants, OpenHighKeyBeforeTheRightmostNode) {
  peer_.high_key(leaf(2)) = kReservedKey;
  EXPECT_EQ(violation(), "non-rightmost node with open high key");
}

TEST_F(BTreeInvariants, RightmostNodeShortOfTheKeySpace) {
  const std::uint32_t l = leaf(9);
  peer_.high_key(l) = peer_.keys(l).back();
  EXPECT_EQ(violation(), "rightmost node must cover the key space");
}

TEST_F(BTreeInvariants, ParentEntryDisagreesWithItsChild) {
  peer_.keys(inner(0)).front() -= 1;
  EXPECT_EQ(violation(), "child high key disagrees with parent entry");
}

// ---------------------------------------------------------------------------
// audit: the end state from one walk, as the three inspections give it
// ---------------------------------------------------------------------------

void expect_audit_agrees(const DistributedBTree& bt) {
  const DistributedBTree::Audit a = bt.audit();
  EXPECT_EQ(a.keys, bt.num_keys());
  EXPECT_EQ(a.digest, bt.digest_host());
  EXPECT_EQ(a.ok, bt.check_invariants());
}

/// BTreeInvariants' valid tree, for planting one corruption in each.
struct PlantedTree {
  PlantedTree() : w(small_params(6)), peer(w.bt) {
    w.bt.bulk_load(make_keys(40));
  }
  std::uint32_t leaf(std::size_t i) const { return peer.level(0).at(i); }
  std::uint32_t inner(std::size_t i) const { return peer.level(1).at(i); }

  World w;
  BTreeTestPeer peer;
};

struct Corruption {
  const char* name;
  bool sound;    // check_invariants still holds
  bool vouched;  // and the one walk shows it by itself
  void (*plant)(PlantedTree&);
};

/// Each tree BTreeInvariants' tests build, and one with an unlinked node.
const Corruption kCorruptions[] = {
    {"entry arrays of different lengths", false, false,
     [](PlantedTree& t) { t.peer.payload(t.leaf(2)).pop_back(); }},
    {"node over capacity", false, false,
     [](PlantedTree& t) {
       const std::uint32_t l = t.leaf(2);
       for (std::uint64_t k = 1; k <= 4; ++k) {
         t.peer.keys(l).push_back(t.peer.keys(l).back() + 1);
         t.peer.payload(l).push_back(k);
       }
     }},
    {"unsorted node", false, false,
     [](PlantedTree& t) {
       std::vector<std::uint64_t>& k = t.peer.keys(t.leaf(2));
       std::swap(k[1], k[2]);
     }},
    {"duplicate bound", false, false,
     [](PlantedTree& t) {
       std::vector<std::uint64_t>& k = t.peer.keys(t.leaf(2));
       k[2] = k[1];
     }},
    {"unsorted after an earlier duplicate", false, false,
     [](PlantedTree& t) {
       std::vector<std::uint64_t>& k = t.peer.keys(t.leaf(2));
       k[1] = k[0];
       std::swap(k[2], k[3]);
     }},
    {"entry above the high key", false, false,
     [](PlantedTree& t) {
       const std::uint32_t l = t.leaf(2);
       t.peer.high_key(l) = t.peer.keys(l).back() - 1;
     }},
    {"internal last bound below the high key", false, false,
     [](PlantedTree& t) {
       const std::uint32_t n = t.inner(0);
       t.peer.high_key(n) = t.peer.keys(n).back() + 1;
     }},
    {"ragged level", false, false,
     [](PlantedTree& t) { t.peer.level_of(t.leaf(5)) = 1; }},
    {"cross-node order", false, false,
     [](PlantedTree& t) {
       t.peer.keys(t.leaf(3)).front() = t.peer.keys(t.leaf(2)).back();
     }},
    {"empty leaf", true, true,
     [](PlantedTree& t) {
       t.peer.keys(t.leaf(3)).clear();
       t.peer.payload(t.leaf(3)).clear();
     }},
    {"cross-node order across an empty leaf", false, false,
     [](PlantedTree& t) {
       t.peer.keys(t.leaf(3)).clear();
       t.peer.payload(t.leaf(3)).clear();
       t.peer.keys(t.leaf(4)).front() = t.peer.keys(t.leaf(2)).back();
     }},
    {"open high key before the rightmost node", false, false,
     [](PlantedTree& t) { t.peer.high_key(t.leaf(2)) = kReservedKey; }},
    {"rightmost node short of the key space", false, false,
     [](PlantedTree& t) {
       const std::uint32_t l = t.leaf(9);
       t.peer.high_key(l) = t.peer.keys(l).back();
     }},
    {"parent entry disagrees with its child", false, false,
     [](PlantedTree& t) { t.peer.keys(t.inner(0)).front() -= 1; }},
    {"a leaf no level links to", true, false,
     [](PlantedTree& t) { (void)t.peer.orphan_leaf(); }},
};

TEST(BTreeAudit, AgreesWithTheInspectionsOnEveryCorruptedTree) {
  for (const Corruption& c : kCorruptions) {
    SCOPED_TRACE(c.name);
    PlantedTree t;
    ASSERT_TRUE(t.peer.walk().has_value());
    c.plant(t);
    EXPECT_EQ(t.w.bt.check_invariants(), c.sound);
    // The walk vouches only for a tree whose every node it met and passed.
    const std::optional<DistributedBTree::Audit> walk = t.peer.walk();
    EXPECT_EQ(walk.has_value(), c.vouched);
    expect_audit_agrees(t.w.bt);
  }
}

TEST(BTreeInspection, NumKeysAgreesWithKeysHostAfterSplits) {
  for (const Mechanism mech : {Mechanism::kRpc, Mechanism::kMigration}) {
    World w(small_params(4));
    w.bt.bulk_load(make_keys(20));  // odd keys 1..39
    const std::size_t nodes0 = w.bt.num_nodes();
    // Four requesters insert 40 fresh even keys at once, contending for
    // node locks while the leaves split.
    for (ProcId t = 0; t < 4; ++t) {
      for (std::uint64_t k = 0; k < 10; ++k) {
        const std::uint64_t key = 2 * (4 * k + t + 1);
        sim::detach(do_insert(&w, mech, 8 + t, key, key));
      }
    }
    w.eng.run();
    EXPECT_GT(w.bt.num_nodes(), nodes0);
    EXPECT_EQ(w.bt.num_keys(), w.bt.keys_host().size());
    EXPECT_EQ(w.bt.num_keys(), 60u);
    EXPECT_TRUE(w.bt.check_invariants());
  }
}

struct ConcurrencyCase {
  Mechanism mech;
  std::uint64_t seed;
  bool replication;
};

class BTreeConcurrency : public ::testing::TestWithParam<ConcurrencyCase> {};

TEST_P(BTreeConcurrency, RandomStreamsConvergeToOracle) {
  const auto c = GetParam();
  World w(small_params(4, c.replication));
  const auto bulk = make_keys(40, 4);
  w.bt.bulk_load(bulk);

  constexpr int kThreads = 8;
  std::set<std::uint64_t> inserted[kThreads];
  int bad = 0;
  for (int t = 0; t < kThreads; ++t) {
    sim::detach(op_stream(&w, c.mech, static_cast<ProcId>(8 + t),
                          c.seed * 100 + t, 60, 500, &inserted[t], &bad));
  }
  w.eng.run();

  EXPECT_EQ(bad, 0) << "lookup returned a value that was never stored";
  std::string why;
  ASSERT_TRUE(w.bt.check_invariants(&why)) << why;

  std::set<std::uint64_t> oracle(bulk.begin(), bulk.end());
  for (const auto& s : inserted) oracle.insert(s.begin(), s.end());
  const auto keys = w.bt.keys_host();
  ASSERT_EQ(keys.size(), oracle.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), oracle.begin()));
}

// gtest names each case by dumping its bytes, padding included. A static
// table has zeroed padding; stack temporaries would leak stack contents
// (ASLR-randomised addresses among them) into the test names.
constexpr ConcurrencyCase kConcurrencyCases[] = {
    {Mechanism::kRpc, 1, false},
    {Mechanism::kRpc, 2, true},
    {Mechanism::kMigration, 3, false},
    {Mechanism::kMigration, 4, true},
    {Mechanism::kMigration, 5, true},
    {Mechanism::kSharedMemory, 6, false},
    {Mechanism::kSharedMemory, 7, false},
    {Mechanism::kRpc, 8, false},
    {Mechanism::kMigration, 9, false},
    {Mechanism::kObjectMigration, 10, false},
    {Mechanism::kObjectMigration, 11, false},
    {Mechanism::kThreadMigration, 12, false}};

INSTANTIATE_TEST_SUITE_P(Cases, BTreeConcurrency,
                         ::testing::ValuesIn(kConcurrencyCases));

Task<> partition_stream(World* w, Mechanism mech, ProcId home, unsigned tid,
                        unsigned nthreads, int nops,
                        std::set<std::uint64_t>* oracle, int* errors) {
  Ctx ctx{&w->rt, home};
  sim::Rng rng(5000 + tid);
  for (int i = 0; i < nops; ++i) {
    // Each thread owns the keys congruent to tid (mod nthreads), so its
    // private oracle stays exact under full concurrency.
    const std::uint64_t key = 1 + tid + nthreads * rng.below(60);
    if (rng.chance(0.55)) {
      const bool fresh = co_await w->bt.insert(ctx, mech, key, key);
      if (fresh != oracle->insert(key).second) ++*errors;
    } else {
      const bool removed = co_await w->bt.remove(ctx, mech, key);
      if (removed != (oracle->erase(key) > 0)) ++*errors;
    }
  }
}

class BTreeConcurrentRemoves : public ::testing::TestWithParam<Mechanism> {};

TEST_P(BTreeConcurrentRemoves, DisjointPartitionsStayExact) {
  World w(small_params(4));
  constexpr unsigned kThreads = 6;
  std::set<std::uint64_t> oracle[kThreads];
  int errors = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    sim::detach(partition_stream(&w, GetParam(),
                                 static_cast<ProcId>(8 + t), t, kThreads,
                                 80, &oracle[t], &errors));
  }
  w.eng.run();
  EXPECT_EQ(errors, 0) << "insert/remove return values disagreed with the "
                          "per-partition oracle";
  std::string why;
  ASSERT_TRUE(w.bt.check_invariants(&why)) << why;
  std::set<std::uint64_t> all;
  for (const auto& o : oracle) all.insert(o.begin(), o.end());
  const auto keys = w.bt.keys_host();
  EXPECT_EQ(keys.size(), all.size());
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), all.begin()));
}

INSTANTIATE_TEST_SUITE_P(All, BTreeConcurrentRemoves,
                         ::testing::Values(Mechanism::kRpc,
                                           Mechanism::kMigration,
                                           Mechanism::kSharedMemory,
                                           Mechanism::kObjectMigration,
                                           Mechanism::kThreadMigration));

/// A requester's ops on keys that only it touches, and what each returned:
/// 1 or 0 for an insert or remove, a lookup's value, or ~0 if not found.
Task<> own_stream(World* w, Mechanism mech, ProcId home, unsigned tid,
                  unsigned nthreads, std::vector<std::uint64_t>* results) {
  Ctx ctx{&w->rt, home};
  sim::Rng rng(77 + tid);
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t key = 1 + tid + nthreads * rng.below(30);
    const std::uint64_t op = rng.below(3);
    if (op == 0) {  // a present key takes a new value
      results->push_back(co_await w->bt.insert(ctx, mech, key, key + i));
    } else if (op == 1) {
      results->push_back(co_await w->bt.remove(ctx, mech, key));
    } else {
      std::uint64_t value = 0;
      const bool found = co_await w->bt.lookup(ctx, mech, key, &value);
      results->push_back(found ? value : kReservedKey);
    }
  }
}

TEST(BTreeSemantics, MechanismsProduceIdenticalTrees) {
  // The annotation must not change results (paper §3.1): the same seeded
  // concurrent workload leaves the same keys and values, and gives every
  // operation the same result, under every mechanism, with and without
  // root replication. Each requester owns its keys, so its results depend
  // on its own history alone, never on how the requesters interleave.
  constexpr unsigned kThreads = 4;
  struct Run {
    std::vector<std::uint64_t> keys;
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> results[kThreads];
  };
  auto final_keys = [](Mechanism mech, bool repl = false) {
    World w(small_params(4, repl));
    w.bt.bulk_load(make_keys(30, 3));
    Run run;
    for (unsigned t = 0; t < kThreads; ++t) {
      sim::detach(own_stream(&w, mech, static_cast<ProcId>(8 + t), t,
                             kThreads, &run.results[t]));
    }
    w.eng.run();
    EXPECT_TRUE(w.bt.check_invariants());
    run.keys = w.bt.keys_host();
    run.digest = w.bt.digest_host();
    return run;
  };
  const Run rpc = final_keys(Mechanism::kRpc);
  const Run mig = final_keys(Mechanism::kMigration);
  const Run sm = final_keys(Mechanism::kSharedMemory);
  EXPECT_EQ(rpc.keys, mig.keys);
  EXPECT_EQ(rpc.keys, sm.keys);
  const Run others[] = {mig,
                        sm,
                        final_keys(Mechanism::kObjectMigration),
                        final_keys(Mechanism::kThreadMigration),
                        final_keys(Mechanism::kRpc, /*repl=*/true),
                        final_keys(Mechanism::kMigration, /*repl=*/true)};
  for (std::size_t i = 0; i < std::size(others); ++i) {
    EXPECT_EQ(others[i].keys, rpc.keys) << "run " << i;
    EXPECT_EQ(others[i].digest, rpc.digest) << "run " << i;
    for (unsigned t = 0; t < kThreads; ++t) {
      ASSERT_EQ(rpc.results[t].size(), 40u);
      EXPECT_EQ(others[i].results[t], rpc.results[t])
          << "run " << i << ", requester " << t;
    }
  }
}

TEST(BTreeAudit, OneWalkAgreesWithTheInspectionsAfterMixedOps) {
  // Inserts that split, removes and lookups from four requesters, under
  // every mechanism, with and without root replication.
  constexpr unsigned kThreads = 4;
  for (const Mechanism mech :
       {Mechanism::kRpc, Mechanism::kMigration, Mechanism::kSharedMemory,
        Mechanism::kObjectMigration, Mechanism::kThreadMigration}) {
    for (const bool repl : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "mechanism " << static_cast<int>(mech) << ", repl "
                   << repl);
      World w(small_params(4, repl));
      w.bt.bulk_load(make_keys(30, 3));
      const std::size_t nodes0 = w.bt.num_nodes();
      std::vector<std::uint64_t> results[kThreads];
      for (unsigned t = 0; t < kThreads; ++t) {
        sim::detach(own_stream(&w, mech, static_cast<ProcId>(8 + t), t,
                               kThreads, &results[t]));
      }
      w.eng.run();
      EXPECT_GT(w.bt.num_nodes(), nodes0);
      const std::optional<DistributedBTree::Audit> walk =
          BTreeTestPeer(w.bt).walk();
      ASSERT_TRUE(walk.has_value());
      EXPECT_TRUE(walk->ok);
      EXPECT_EQ(walk->keys, w.bt.num_keys());
      EXPECT_EQ(walk->digest, w.bt.digest_host());
      expect_audit_agrees(w.bt);
    }
  }
}

TEST(BTreeTraffic, MigrationSendsFewerMessagesThanRpc) {
  auto messages = [](Mechanism mech) {
    World w(small_params(8));
    w.bt.bulk_load(make_keys(200));
    bool found = false;
    for (std::uint64_t k = 0; k < 40; ++k) {
      sim::detach(do_lookup(&w, mech, 12, 1 + 2 * k, &found));
      w.eng.run();
    }
    return w.net.stats().messages;
  };
  EXPECT_LT(messages(Mechanism::kMigration), messages(Mechanism::kRpc));
}

TEST(BTreeReplication, RootReplicaCutsRootTraffic) {
  auto root_home_busy = [](bool repl) {
    World w(small_params(8, repl));
    w.bt.bulk_load(make_keys(200));
    bool found = false;
    for (std::uint64_t k = 0; k < 30; ++k) {
      sim::detach(do_lookup(&w, Mechanism::kMigration, 12, 1 + 2 * k, &found));
      w.eng.run();
    }
    return w.rt.stats().migrations;
  };
  // With the root replicated, descents skip the migration to the root.
  EXPECT_LT(root_home_busy(true), root_home_busy(false));
}

TEST(BTreeReplication, RootSplitInvalidatesAndRebinds) {
  World w(small_params(3, true));
  // Grow from empty through several root splits under replication; the
  // interleaved lookups populate replicas (reads use them; updates descend
  // via the primary), which the root changes must then invalidate.
  bool found = false;
  for (std::uint64_t k = 1; k <= 60; ++k) {
    sim::detach(do_insert(&w, Mechanism::kMigration, 9, k * 7, k));
    w.eng.run();
    sim::detach(do_lookup(&w, Mechanism::kMigration, 10 + (k % 4), k * 7,
                          &found));
    w.eng.run();
    EXPECT_TRUE(found);
  }
  EXPECT_TRUE(w.bt.check_invariants());
  EXPECT_GT(w.bt.height(), 2u);
  EXPECT_GT(w.rt.stats().replica_invalidations, 0u);
  // Lookups after the rebinds still work.
  found = false;
  sim::detach(do_lookup(&w, Mechanism::kMigration, 10, 7, &found));
  w.eng.run();
  EXPECT_TRUE(found);
}

TEST(BTreeDeterminism, FixedSeedsGiveIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    World w(small_params(4));
    w.bt.bulk_load(make_keys(30));
    std::set<std::uint64_t> sink[3];
    int bad = 0;
    for (int t = 0; t < 3; ++t) {
      sim::detach(op_stream(&w, Mechanism::kMigration,
                            static_cast<ProcId>(8 + t), seed + t, 30, 200,
                            &sink[t], &bad));
    }
    w.eng.run();
    return std::tuple{w.eng.now(), w.net.stats().words, w.bt.num_keys()};
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(BTreeSharedMemory, UpperLevelsCacheWell) {
  // Read-only traversals replicate the root/internal lines in the
  // requester's cache: a second identical lookup misses far less.
  World w(small_params(16));
  w.bt.bulk_load(make_keys(400));
  bool found = false;
  sim::detach(do_lookup(&w, Mechanism::kSharedMemory, 12, 101, &found));
  w.eng.run();
  const auto miss1 = w.mem->stats().misses();
  sim::detach(do_lookup(&w, Mechanism::kSharedMemory, 12, 101, &found));
  w.eng.run();
  const auto miss2 = w.mem->stats().misses() - miss1;
  EXPECT_LT(miss2, miss1 / 4);
}

}  // namespace
}  // namespace cm::apps
