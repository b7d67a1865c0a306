// Distributed B-tree application (paper §4.2): a simplified version of
// Wang's concurrent B-link-tree algorithm [Wan91] — `lookup`, `insert` and
// a lazy `remove` that never merges nodes — with nodes scattered uniformly
// at random over the first `node_procs` processors.
//
// Node representation (B-link, Lehman-Yao style): every node is a sorted
// list of (max_key, payload) entries — in a leaf the payload is the stored
// value and max_key is the key itself; in an internal node the payload is a
// child and max_key is the largest key that child covers. `high_key` bounds
// the node's range; a traversal that overshoots (key > high_key) moves right
// through the `right` sibling link, which makes lookups lock-free and lets
// updates lock one node at a time (two while a split reaches the parent).
//
// Mechanisms:
//  * RPC: each node visit is a remote call to the node's home processor.
//  * Computation migration (CP): the operation's activation migrates node
//    to node down the tree; the result returns straight to the requester.
//    With software replication ("w/repl."), the root's contents are
//    replicated on every processor (multi-version memory) so the first hop
//    skips the root. Thread migration (TM) ships the whole thread instead;
//    under object migration (OBJ) each node moves to its visitor.
//  * Shared memory: the traversal runs on the requester; node contents live
//    in coherent shared memory; lookups are optimistic (per-node seqlock) so
//    read-shared upper levels replicate in hardware caches; updates take the
//    node's coherence-level spin lock.
// The algorithm is written once, over a node-access layer each operation
// picks from its mechanism (node_access.h, btree.cc).
//
// The user-code costs and the message payloads are the paper's fixed
// workload and live as constants in btree.cc; Params holds what an
// experiment varies: node size, placement, bulk fill and replication.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "core/mobile.h"
#include "core/replication.h"
#include "core/runtime.h"
#include "shmem/coherent_memory.h"
#include "shmem/sync.h"
#include "sim/async_mutex.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace cm::policy {
class PolicyEngine;
}  // namespace cm::policy

namespace cm::apps {

class DistributedBTree {
 public:
  struct Params {
    unsigned max_entries = 100;   // per node ("at most one hundred")
    sim::ProcId node_procs = 48;  // nodes placed on procs [0, node_procs)
    std::uint64_t seed = 1;       // placement randomness
    double bulk_fill = 2.0 / 3.0; // fill factor for bulk_load
    bool replication = false;     // software replication of the root
  };

  /// Throws std::invalid_argument if `max_entries` or `node_procs` is 0,
  /// or if `bulk_fill` is not in (0, 1]. `mem` may be null when no
  /// operation runs under shared memory.
  DistributedBTree(core::Runtime& rt, shmem::CoherentMemory* mem, Params p);

  /// Build the initial tree from sorted unique keys (host-level, free):
  /// the paper "first constructed a B-tree with ten thousand keys". Throws
  /// std::invalid_argument, leaving the tree as it was, unless the tree is
  /// fresh and the keys strictly increase without the reserved key ~0.
  void bulk_load(const std::vector<std::uint64_t>& keys);

  /// The operations throw std::invalid_argument to their awaiter, before
  /// any simulated step, if `mech` is shared memory and the tree was built
  /// without a CoherentMemory; `insert` also if `key` is the reserved ~0.
  [[nodiscard]] sim::Task<bool> lookup(core::Ctx& ctx, core::Mechanism mech,
                                       std::uint64_t key,
                                       std::uint64_t* value_out = nullptr);
  [[nodiscard]] sim::Task<bool> insert(core::Ctx& ctx, core::Mechanism mech,
                                       std::uint64_t key, std::uint64_t value);

  /// Remove `key`; returns whether it was present. An extension beyond the
  /// paper's simplified algorithm ("it does not support the delete
  /// operation"): lazy B-link deletion — the entry leaves its leaf under
  /// the leaf's lock, but nodes are never merged or rebalanced, which is
  /// the standard practical compromise for B-link trees.
  [[nodiscard]] sim::Task<bool> remove(core::Ctx& ctx, core::Mechanism mech,
                                       std::uint64_t key);

  // ---- host-level inspection (tests / setup only; no simulation cost) ----
  [[nodiscard]] std::size_t num_keys() const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] unsigned height() const;  // levels (leaf-only tree = 1)
  [[nodiscard]] unsigned root_children() const;
  [[nodiscard]] bool contains_host(std::uint64_t key) const;
  [[nodiscard]] std::vector<std::uint64_t> keys_host() const;  // sorted
  /// Order-independent digest over the stored (key, value) pairs: two trees
  /// with identical contents but different shapes (split histories) compare
  /// equal. Used by the chaos soak tests to assert that injected faults
  /// never change application-level results.
  [[nodiscard]] std::uint64_t digest_host() const;
  /// Structural invariants: sortedness, entry bounds, high keys, right
  /// links, uniform leaf depth. Returns true if all hold; otherwise stores
  /// the first violation found in `why`.
  [[nodiscard]] bool check_invariants(std::string* why = nullptr) const;

  /// What a run's end state reads of the tree, bit for bit what num_keys(),
  /// digest_host() and check_invariants() return: from one walk down the
  /// levels when it vouches for the tree, else from the three of them.
  struct Audit {
    std::size_t keys = 0;
    std::uint64_t digest = 0;
    bool ok = false;
  };
  [[nodiscard]] Audit audit() const;

  /// Put every node under placement-policy management (null detaches).
  /// Internal nodes are read-mostly routers — phase-flip candidates; leaves
  /// absorb the writes and are move-only. Call after bulk_load; nodes born
  /// later (splits) register themselves in alloc_node.
  void set_policy(policy::PolicyEngine* pol);

 private:
  friend class BTreeTestPeer;  // corrupts trees for check_invariants' tests

  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  static constexpr std::uint64_t kMaxKey = ~0ull;

  /// Elements built in place that never move, so a reference to one stays
  /// valid across co_await while other operations add more. They sit in
  /// blocks of kBlock: element i is slot i % kBlock of block i / kBlock.
  template <class T>
  class Table {
   public:
    Table() = default;
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;
    ~Table() { clear(); }

    template <class... Args>
    T& emplace_back(Args&&... args) {
      if (size_ == blocks_.size() * kBlock) {
        blocks_.push_back(std::make_unique_for_overwrite<Block>());
      }
      T* const t = ::new (slot(size_)) T(std::forward<Args>(args)...);
      ++size_;
      return *t;
    }
    T& operator[](std::uint32_t i) {
      return *std::launder(reinterpret_cast<T*>(slot(i)));
    }
    const T& operator[](std::uint32_t i) const {
      return *std::launder(reinterpret_cast<const T*>(slot(i)));
    }
    [[nodiscard]] std::uint32_t size() const { return size_; }
    /// Destroys the elements, first to last, and keeps the blocks.
    void clear() {
      for (std::uint32_t i = 0; i < size_; ++i) (*this)[i].~T();
      size_ = 0;
    }

   private:
    static constexpr unsigned kShift = 5;
    static constexpr std::uint32_t kBlock = 1u << kShift;
    struct Block {
      alignas(T) std::byte bytes[kBlock * sizeof(T)];
    };
    std::byte* slot(std::uint32_t i) const {
      return blocks_[i >> kShift]->bytes + (i & (kBlock - 1)) * sizeof(T);
    }

    std::vector<std::unique_ptr<Block>> blocks_;
    std::uint32_t size_ = 0;
  };

  // Host representation: nodes are built in place in a Table. A node's
  // shared-memory state lives in a Table of its own, at the same index, and
  // only in a tree with a CoherentMemory: message-passing trees carry none
  // of it.
  struct Node {
    Node(bool is_leaf, unsigned lvl, core::ObjectId id, core::Runtime& rt,
         unsigned mobile_words)
        : leaf(is_leaf), level(lvl), oid(id), mobile(rt, id, mobile_words) {}

    bool leaf;
    unsigned level;                      // 0 = leaf
    std::vector<std::uint64_t> maxkey;   // sorted entry bounds
    std::vector<std::uint64_t> payload;  // child node id or value
    std::uint64_t high_key = kMaxKey;    // covers keys <= high_key
    std::uint32_t right = kNone;         // right sibling

    // runtime bindings
    core::ObjectId oid;
    sim::AsyncMutex mutex;      // message-passing update lock
    core::MobileObject mobile;  // Emerald-style mobility
  };

  /// A node's shared-memory bindings: its entry block and its two locks.
  struct SmNode {
    SmNode(shmem::CoherentMemory& mem, sim::ProcId home, shmem::Addr at)
        : base(at), seq(mem, home), lock(mem, home) {}

    shmem::Addr base;  // header line, then the entries
    shmem::SeqLock seq;
    shmem::SpinLock lock;
  };

  /// The internal nodes an update descended through, root first. Inline up
  /// to kInline of them, so that an update of a tree of up to kInline + 1
  /// levels allocates nothing; a taller tree spills the rest to the heap.
  class Path {
   public:
    void push(std::uint32_t id) {
      if (size_ < kInline) {
        inline_[size_] = id;
      } else {
        spill_.push_back(id);
      }
      ++size_;
    }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// Removes and returns the deepest node.
    std::uint32_t pop() {
      --size_;
      if (size_ < kInline) return inline_[size_];
      const std::uint32_t id = spill_.back();
      spill_.pop_back();
      return id;
    }

   private:
    static constexpr std::size_t kInline = 8;
    std::array<std::uint32_t, kInline> inline_{};
    std::vector<std::uint32_t> spill_;
    std::size_t size_ = 0;
  };

  /// Outcome of examining one node during a traversal.
  struct Step {
    enum class Kind { kDescend, kLateral, kLeaf } kind = Kind::kLeaf;
    std::uint32_t next = kNone;
    bool found = false;
    std::uint64_t value = 0;
  };

  /// A split node and its new right sibling, for the parent's update.
  struct SplitInfo {
    std::uint32_t left = kNone;
    std::uint32_t right = kNone;
    std::uint64_t left_max = 0;   // left's new high key (updated entry)
    std::uint64_t right_max = 0;  // right's bound (inserted entry)
    unsigned level = 0;           // level of the split nodes
  };

  /// What a locked update did at its node: either the key lies further
  /// right (`right` names the sibling to try), or the edit ran.
  struct Update {
    std::uint32_t right = kNone;
    bool changed = false;              // insert: a new key; remove: one left
    std::optional<SplitInfo> split{};  // the node split; it stays locked
    std::uint32_t release = kNone;     // a split child this edit unlocks
  };

  // ---- host-level tree logic (pure; simulation charges wrap these) ----
  [[nodiscard]] Step search_step(const Node& n, std::uint64_t key) const;
  std::uint32_t alloc_node(bool leaf, unsigned level);
  void link_level(const std::vector<std::uint32_t>& ids);
  [[nodiscard]] std::uint32_t leftmost_leaf() const;
  /// check_invariants' checks of one node on its own: the start of the
  /// first violation's message, which the node's id completes, or null.
  [[nodiscard]] const char* node_flaw(const Node& n) const;
  /// Is each entry of `n` its child's high key (true for a leaf)?
  [[nodiscard]] bool bounds_children(const Node& n) const;
  /// check_invariants' walk down the levels, each along its right links,
  /// root level first: it checks each level's order and calls
  /// `meet(node, on_leaf_level)` on every node it reaches, which returns a
  /// violation's message or null. Returns the first violation, or null.
  template <class Meet>
  const char* walk_levels(Meet meet) const;
  /// audit()'s one walk: walk_levels, with the per-node and parent-entry
  /// checks on each node it meets and the leaf level's keys and digest
  /// summed on the way. Null if it finds a violation or misses a node.
  [[nodiscard]] std::optional<Audit> audit_walk() const;
  /// update_locked's edits of node `nid`: put (key, value) into the leaf,
  /// take the key out of it, or enter a split child's new sibling in the
  /// parent. An edit that overfills the node splits it.
  Update insert_entry(std::uint32_t nid, std::uint64_t key,
                      std::uint64_t value);
  Update remove_entry(std::uint32_t nid, std::uint64_t key);
  Update install_separator(std::uint32_t nid, const SplitInfo& info);
  /// Move the upper half of an overfull node `nid` to a new right sibling.
  std::optional<SplitInfo> split_if_full(std::uint32_t nid);

  // ---- Wang's algorithm over a node-access layer `A`: Coherent (shared
  // memory) or Messages (RPC, CP, OBJ, TM), picked by apps::with_access ----
  class Coherent;
  class Messages;
  template <class A>
  sim::Task<bool> lookup_via(core::Ctx& ctx, A acc, std::uint64_t key,
                             std::uint64_t* value_out);
  /// insert's and remove's path: descend, `edit` the leaf under its lock,
  /// install any split, return home. The policy profile's accessor of the
  /// leaf write is the processor the activation arrives at the leaf from.
  template <class A, class Edit>
  sim::Task<bool> write_via(core::Ctx& ctx, A acc, std::uint64_t key,
                            Edit edit);
  /// A descent's visit to node `nid` starts here: its trace record, then
  /// the node's policy replica under `acc`, if it has one, which the descent
  /// reads (read_replica) instead of visiting the node (visit_node).
  template <class A>
  core::Replicated* start_visit(const core::Ctx& ctx, A acc,
                                std::uint32_t nid) const;
  /// Read node `nid` where `acc` runs accesses.
  template <class A>
  auto visit_node(core::Ctx& ctx, A acc, std::uint32_t nid, std::uint64_t key);
  sim::Task<Step> read_replica(core::Ctx& ctx, core::Replicated& copy,
                               std::uint32_t nid, std::uint64_t key);
  /// Wang's locked update of node `nid`: lock; if `route_key` lies beyond
  /// the node, unlock and name its right sibling; else the policy hook for
  /// `accessor`, the search charge, root-replica invalidation, `edit(nid)`
  /// with its modify charge inside the write bracket, and the unlocks.
  template <class A, class Edit>
  auto update_locked(core::Ctx& ctx, A acc, sim::ProcId accessor,
                     std::uint32_t nid, std::uint64_t route_key, Edit edit);
  /// Install a split's separator into the parent level; may cascade.
  template <class A>
  sim::Task<> install_split(core::Ctx& ctx, A acc, Path path, SplitInfo info);
  /// Split the root (under the tree lock).
  template <class A>
  sim::Task<> split_root(core::Ctx& ctx, A acc, SplitInfo info);

  core::Runtime* rt_;
  shmem::CoherentMemory* mem_;
  policy::PolicyEngine* policy_ = nullptr;  // null = no placement policy
  Params p_;
  sim::Rng rng_;
  Table<Node> nodes_;
  Table<SmNode> sm_;  // nodes_[i]'s SM bindings; empty without mem_
  std::uint32_t root_ = kNone;
  sim::AsyncMutex tree_lock_;  // serialises root replacement
  std::unique_ptr<core::Replicated> repl_;
  /// SM address of the root-pointer word (read each op start, written on
  /// root split).
  shmem::Addr anchor_addr_ = 0;
};

}  // namespace cm::apps
