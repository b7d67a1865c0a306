// Distributed B-tree application (paper §4.2): a simplified version of
// Wang's concurrent B-link-tree algorithm [Wan91] — `lookup` and `insert`,
// no `delete` — with nodes scattered uniformly at random over the first
// `node_procs` processors.
//
// Node representation (B-link, Lehman-Yao style): every node is a sorted
// list of (max_key, payload) entries — in a leaf the payload is the stored
// value and max_key is the key itself; in an internal node the payload is a
// child and max_key is the largest key that child covers. `high_key` bounds
// the node's range; a traversal that overshoots (key > high_key) moves right
// through the `right` sibling link, which makes lookups lock-free and lets
// inserts hold at most one node lock at a time.
//
// Mechanisms:
//  * RPC: each node visit is a remote call to the node's home processor.
//  * Computation migration: the operation's activation migrates node to node
//    down the tree; the result returns straight to the requester. With
//    software replication ("w/repl."), the root's contents are replicated on
//    every processor (multi-version memory) so the first hop skips the root.
//  * Shared memory: the traversal runs on the requester; node contents live
//    in coherent shared memory; lookups are optimistic (per-node seqlock) so
//    read-shared upper levels replicate in hardware caches; inserts take the
//    node's coherence-level spin lock.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
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

    // Cost knobs (user code, charged under every mechanism).
    sim::Cycles search_base = 20;      // per node visit
    sim::Cycles search_per_probe = 6;  // per binary-search probe
    sim::Cycles search_per_entry = 8;  // scan/compare over the entry array
    sim::Cycles modify_work = 40;      // leaf/parent entry insertion
    sim::Cycles modify_per_entry = 4;  // shifting the entry array
    sim::Cycles split_work = 120;      // building a sibling
    unsigned frame_words = 10;         // migrated activation size
    unsigned thread_state_words = 96;  // whole-thread migration payload
    // General-stub RPC envelopes (key, op descriptor, linkage, result
    // record): the paper's Table 1+2 bandwidth/throughput quotients imply
    // ~30 words per RPC message vs ~12 per migration message.
    unsigned rpc_arg_words = 12;
    unsigned rpc_ret_words = 12;
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
  [[nodiscard]] core::Replicated* root_replica() { return repl_.get(); }

  /// Put every node under placement-policy management (null detaches).
  /// Internal nodes are read-mostly routers — phase-flip candidates; leaves
  /// absorb the writes and are move-only. Call after bulk_load; nodes born
  /// later (splits) register themselves in alloc_node.
  void set_policy(policy::PolicyEngine* pol);

 private:
  friend class BTreeTestPeer;  // corrupts trees for check_invariants' tests

  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  static constexpr std::uint64_t kMaxKey = ~0ull;

  // Host representation: nodes are built in place in a std::deque, which
  // never moves an element, so a reference to a node stays valid across
  // co_await while other operations allocate nodes. A node's shared-memory
  // state lives beside it, at the same index, and only in a tree with a
  // CoherentMemory: message-passing trees carry none of it.
  struct Node {
    Node(bool is_leaf, unsigned lvl, core::ObjectId id, sim::ProcId at,
         core::Runtime& rt, unsigned mobile_words)
        : leaf(is_leaf), level(lvl), oid(id), home(at),
          mobile(rt, id, mobile_words) {}

    bool leaf;
    unsigned level;                      // 0 = leaf
    std::vector<std::uint64_t> maxkey;   // sorted entry bounds
    std::vector<std::uint64_t> payload;  // child node id or value
    std::uint64_t high_key = kMaxKey;    // covers keys <= high_key
    std::uint32_t right = kNone;         // right sibling

    // runtime bindings
    core::ObjectId oid;
    sim::ProcId home;
    sim::AsyncMutex mutex;      // RPC/CM insert lock
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

  /// The internal nodes an insert descended through, root first. Inline up
  /// to kInline of them, so that an insert into a tree of up to kInline + 1
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

  struct SplitInfo;  // forward: used by host-level helpers below

  // ---- host-level tree logic (pure; simulation charges wrap these) ----
  [[nodiscard]] Step search_step(const Node& n, std::uint64_t key) const;
  [[nodiscard]] unsigned probes(const Node& n) const;
  /// User-code cycles to search `n`: per visit, per probe and per entry.
  [[nodiscard]] sim::Cycles search_cycles(const Node& n) const;
  /// User-code cycles to modify `n`, measured after the change, plus the
  /// sibling's build when it split.
  [[nodiscard]] sim::Cycles modify_cycles(const Node& n, bool split) const;
  [[nodiscard]] unsigned replica_words() const;
  std::uint32_t alloc_node(bool leaf, unsigned level);
  void link_level(const std::vector<std::uint32_t>& ids);
  [[nodiscard]] std::uint32_t leftmost_leaf() const;
  /// Insert (key,payload) into n (which must cover key); true if new.
  bool apply_entry_insert(Node& n, std::uint64_t key, std::uint64_t payload);
  /// Remove key from leaf n; true if it was present.
  bool apply_entry_remove(Node& n, std::uint64_t key);
  /// Split overflowing node n; returns the new right sibling's id.
  std::uint32_t apply_split(std::uint32_t nid);
  /// Rewrite the parent's entry for a split child and add its new sibling.
  void apply_parent_update(Node& parent, const SplitInfo& info);

  // ---- simulation adapters ----
  /// Examine node `nid` at the requester under SM: the coherent reads
  /// (seqlock-validated when `optimistic`) around the search's compute.
  /// Under RPC/CM the data is local to the method, so the method body
  /// awaits one rt_->compute of search_cycles instead, with no frame.
  [[nodiscard]] sim::Task<> charge_search_sm(core::Ctx& ctx, std::uint32_t nid,
                                             bool optimistic);
  /// Visit a node read-only under RPC/CM (method at the node's home).
  [[nodiscard]] sim::Task<Step> visit_node(core::Ctx& ctx,
                                           core::Mechanism mech,
                                           std::uint32_t nid,
                                           std::uint64_t key);
  /// Leaf-level insert attempt; loops laterally. Returns (inserted, split
  /// separator info) via InsertOutcome.
  struct SplitInfo {
    std::uint32_t left = kNone;
    std::uint32_t right = kNone;
    std::uint64_t left_max = 0;   // left's new high key (updated entry)
    std::uint64_t right_max = 0;  // right's bound (inserted entry)
    unsigned level = 0;           // level of the split nodes
  };
  struct InsertOutcome {
    bool inserted = false;
    std::optional<SplitInfo> split;
  };
  [[nodiscard]] sim::Task<InsertOutcome> insert_into_leaf(
      core::Ctx& ctx, core::Mechanism mech, std::uint32_t leaf,
      std::uint64_t key, std::uint64_t value);
  /// Install a split's separator into the parent level; may cascade.
  [[nodiscard]] sim::Task<> install_split(core::Ctx& ctx,
                                          core::Mechanism mech, Path path,
                                          SplitInfo info);
  /// Split the root (under the tree lock).
  [[nodiscard]] sim::Task<> split_root(core::Ctx& ctx, core::Mechanism mech,
                                       SplitInfo info);

  /// Per-mechanism node-lock helpers.
  [[nodiscard]] sim::Task<> lock_node(core::Ctx& ctx, core::Mechanism mech,
                                      std::uint32_t nid);
  [[nodiscard]] sim::Task<> unlock_node(core::Ctx& ctx, core::Mechanism mech,
                                        std::uint32_t nid);
  /// The coherent writes a modification of node `nid` performs under SM,
  /// after the modify_cycles compute that every mechanism awaits.
  [[nodiscard]] sim::Task<> charge_modify_sm(core::Ctx& ctx, std::uint32_t nid,
                                             bool split);
  /// Throws std::invalid_argument if `mech` needs memory the tree lacks.
  void require_memory(core::Mechanism mech) const;

  /// Root-content descent via the software replica ("w/repl." schemes).
  [[nodiscard]] sim::Task<Step> visit_root_replicated(core::Ctx& ctx,
                                                      std::uint64_t key);

  core::Runtime* rt_;
  shmem::CoherentMemory* mem_;
  policy::PolicyEngine* policy_ = nullptr;  // null = no placement policy
  Params p_;
  sim::Rng rng_;
  std::deque<Node> nodes_;  // stable references
  std::deque<SmNode> sm_;   // nodes_[i]'s SM bindings; empty without mem_
  std::uint32_t root_ = kNone;
  sim::AsyncMutex tree_lock_;  // serialises root replacement
  std::unique_ptr<core::Replicated> repl_;
  /// SM address of the root-pointer word (read each op start, written on
  /// root split).
  shmem::Addr anchor_addr_ = 0;
};

}  // namespace cm::apps
