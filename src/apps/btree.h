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

  /// Throws std::invalid_argument if `max_entries` or `node_procs` is 0.
  DistributedBTree(core::Runtime& rt, shmem::CoherentMemory* mem, Params p);

  /// Build the initial tree from sorted unique keys (host-level, free):
  /// the paper "first constructed a B-tree with ten thousand keys". Throws
  /// std::invalid_argument, leaving the tree as it was, unless the tree is
  /// fresh and the keys strictly increase without the reserved key ~0.
  void bulk_load(const std::vector<std::uint64_t>& keys);

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
  /// links, uniform leaf depth. Returns true if all hold.
  [[nodiscard]] bool check_invariants(std::string* why = nullptr) const;
  [[nodiscard]] core::Replicated* root_replica() { return repl_.get(); }

  /// Put every node under placement-policy management (null detaches).
  /// Internal nodes are read-mostly routers — phase-flip candidates; leaves
  /// absorb the writes and are move-only. Call after bulk_load; nodes born
  /// later (splits) register themselves in alloc_node.
  void set_policy(policy::PolicyEngine* pol);

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  static constexpr std::uint64_t kMaxKey = ~0ull;

  struct Node {
    bool leaf = true;
    unsigned level = 0;  // 0 = leaf
    std::vector<std::uint64_t> maxkey;   // sorted entry bounds
    std::vector<std::uint64_t> payload;  // child node id or value
    std::uint64_t high_key = kMaxKey;    // covers keys <= high_key
    std::uint32_t right = kNone;         // right sibling

    // runtime bindings
    core::ObjectId oid = 0;
    sim::ProcId home = 0;
    std::unique_ptr<sim::AsyncMutex> mutex;  // RPC/CM insert lock
    std::unique_ptr<core::MobileObject> mobile;  // Emerald-style mobility
    // shared-memory bindings (null when SM unused)
    shmem::Addr base = 0;
    std::unique_ptr<shmem::SeqLock> seq;
    std::unique_ptr<shmem::SpinLock> sm_lock;
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
  /// Charge the cost of examining node `n` at the current site. Under SM
  /// this issues the coherent reads (seqlock-validated when `optimistic`);
  /// under RPC/CM it is user-code cycles only (the data is local to the
  /// method).
  [[nodiscard]] sim::Task<> charge_search(core::Ctx& ctx,
                                          core::Mechanism mech,
                                          std::uint32_t nid, bool optimistic);
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
                                          core::Mechanism mech,
                                          std::vector<std::uint32_t> stack,
                                          SplitInfo info);
  /// Split the root (under the tree lock).
  [[nodiscard]] sim::Task<> split_root(core::Ctx& ctx, core::Mechanism mech,
                                       SplitInfo info);

  /// Per-mechanism node-lock helpers.
  [[nodiscard]] sim::Task<> lock_node(core::Ctx& ctx, core::Mechanism mech,
                                      std::uint32_t nid);
  [[nodiscard]] sim::Task<> unlock_node(core::Ctx& ctx, core::Mechanism mech,
                                        std::uint32_t nid);
  /// Charge the writes a modification performs (SM: coherent writes +
  /// seqlock bumps; RPC/CM: user code).
  [[nodiscard]] sim::Task<> charge_modify(core::Ctx& ctx,
                                          core::Mechanism mech,
                                          std::uint32_t nid, bool split);

  /// Root-content descent via the software replica ("w/repl." schemes).
  [[nodiscard]] sim::Task<Step> visit_root_replicated(core::Ctx& ctx,
                                                      std::uint64_t key);

  core::Runtime* rt_;
  shmem::CoherentMemory* mem_;
  policy::PolicyEngine* policy_ = nullptr;  // null = no placement policy
  Params p_;
  sim::Rng rng_;
  std::deque<Node> nodes_;  // stable references
  std::uint32_t root_ = kNone;
  sim::AsyncMutex tree_lock_;  // serialises root replacement
  std::unique_ptr<core::Replicated> repl_;
  /// SM address of the root-pointer word (read each op start, written on
  /// root split).
  shmem::Addr anchor_addr_ = 0;
};

}  // namespace cm::apps
