#include "apps/btree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <stdexcept>

#include "policy/policy.h"

namespace cm::apps {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

namespace {
/// ceil(log2(n+1)): binary-search probes into an n-entry node.
unsigned log2probes(std::size_t n) {
  return n == 0 ? 0u : static_cast<unsigned>(std::bit_width(n));
}

/// Index of the first of the `n` sorted keys at `a` that is >= `key` (`n`
/// if none), as std::lower_bound finds it. Each step halves the range with
/// a conditional move instead of a data-dependent branch.
std::size_t lower_index(const std::uint64_t* a, std::size_t n,
                        std::uint64_t key) {
  if (n == 0) return 0;
  const std::uint64_t* base = a;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < key ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - a) + (*base < key ? 1 : 0);
}
}  // namespace

DistributedBTree::DistributedBTree(core::Runtime& rt,
                                   shmem::CoherentMemory* mem, Params p)
    : rt_(&rt), mem_(mem), p_(p), rng_(p.seed) {
  if (p_.max_entries == 0) {
    throw std::invalid_argument("DistributedBTree: max_entries must be > 0");
  }
  if (p_.node_procs == 0) {
    throw std::invalid_argument("DistributedBTree: node_procs must be > 0");
  }
  if (!(p_.bulk_fill > 0.0 && p_.bulk_fill <= 1.0)) {  // NaN fails too
    throw std::invalid_argument(
        "DistributedBTree: bulk_fill must be in (0, 1]");
  }
  if (mem_ != nullptr) anchor_addr_ = mem_->alloc(0, 8);
  root_ = alloc_node(/*leaf=*/true, /*level=*/0);
  if (p_.replication) {
    repl_ = std::make_unique<core::Replicated>(rt, nodes_[root_].oid,
                                               replica_words());
  }
}

unsigned DistributedBTree::replica_words() const {
  // A root fetch ships the root's entries: ~3 words per entry (key is two
  // 32-bit words + payload), bounded below for tiny roots.
  return std::max(8u, 3u * std::min<unsigned>(p_.max_entries, 16u));
}

std::uint32_t DistributedBTree::alloc_node(bool leaf, unsigned level) {
  ProcId home = static_cast<ProcId>(rng_.below(p_.node_procs));
  // Under fail-stop tolerance a split mid-run must not place the new node
  // on a processor already known dead (recovery only covers objects that
  // existed at suspicion time). Skip to the next live node processor in
  // ring order — a single rng draw either way, so the draw sequence (and
  // every ft-off run) is unchanged.
  if (const core::FaultTolerance* ft = rt_->fault_tolerance()) {
    for (ProcId off = 0; off < p_.node_procs && ft->suspected(home); ++off) {
      home = static_cast<ProcId>((home + 1) % p_.node_procs);
    }
  }
  const core::ObjectId oid = rt_->objects().create(home);
  // A moved node ships its full entry array (3 words per entry + header).
  Node& n = nodes_.emplace_back(leaf, level, oid, home, *rt_,
                                2 + 3 * p_.max_entries);
  // Sized once: a node holds at most max_entries + 1 entries, the overflow
  // that makes it split.
  n.maxkey.reserve(p_.max_entries + 1);
  n.payload.reserve(p_.max_entries + 1);
  if (mem_ != nullptr) {
    // header line + (key, payload) pairs, one entry per 16 bytes; then the
    // SeqLock's word and the SpinLock's.
    sm_.emplace_back(*mem_, home,
                     mem_->alloc(home, 16 + 16ull * (p_.max_entries + 1)));
  }
  // Split-born nodes join the policy's managed set as they appear.
  if (policy_ != nullptr) {
    policy_->manage(n.oid, &n.mobile, 2 + 3 * p_.max_entries,
                    /*replicable=*/!n.leaf);
  }
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void DistributedBTree::set_policy(policy::PolicyEngine* pol) {
  policy_ = pol;
  if (pol == nullptr) return;
  // Internal nodes are read-mostly routers and may be flipped into
  // replication mode; leaves take the entry writes and only ever move.
  for (Node& n : nodes_) {
    pol->manage(n.oid, &n.mobile, 2 + 3 * p_.max_entries,
                /*replicable=*/!n.leaf);
  }
}

void DistributedBTree::bulk_load(const std::vector<std::uint64_t>& keys) {
  if (nodes_.size() != 1 || !nodes_[root_].maxkey.empty()) {
    throw std::invalid_argument("bulk_load: the tree is not fresh");
  }
  if (std::adjacent_find(keys.begin(), keys.end(),
                         std::greater_equal<>()) != keys.end()) {
    throw std::invalid_argument("bulk_load: keys must strictly increase");
  }
  if (!keys.empty() && keys.back() == kMaxKey) {
    throw std::invalid_argument("bulk_load: the maximum key is reserved");
  }
  nodes_.clear();
  sm_.clear();

  const auto per_node = std::max<std::size_t>(
      2, static_cast<std::size_t>(static_cast<double>(p_.max_entries) *
                                  p_.bulk_fill));

  // Build the leaf level.
  std::vector<std::uint32_t> level_nodes;
  for (std::size_t i = 0; i < keys.size() || level_nodes.empty();) {
    const std::uint32_t id = alloc_node(true, 0);
    Node& n = nodes_[id];
    const std::size_t end = std::min(keys.size(), i + per_node);
    n.maxkey.assign(keys.data() + i, keys.data() + end);
    n.payload.assign(keys.data() + i, keys.data() + end);  // value := key
    i = end;
    n.high_key = n.maxkey.empty() ? kMaxKey : n.maxkey.back();
    level_nodes.push_back(id);
    if (keys.empty()) break;
  }
  link_level(level_nodes);

  // Build internal levels until one node remains. When a whole level fits
  // in a single node, that node becomes the root — packing it at the fill
  // factor would manufacture a needless extra level with a 2-child root.
  unsigned level = 1;
  while (level_nodes.size() > 1) {
    const bool is_root_level = level_nodes.size() <= p_.max_entries;
    const std::size_t take = is_root_level ? level_nodes.size() : per_node;
    std::vector<std::uint32_t> parents;
    for (std::size_t i = 0; i < level_nodes.size();) {
      const std::uint32_t id = alloc_node(false, level);
      Node& n = nodes_[id];
      for (std::size_t j = 0; j < take && i < level_nodes.size(); ++j, ++i) {
        const Node& child = nodes_[level_nodes[i]];
        n.maxkey.push_back(child.high_key);
        n.payload.push_back(level_nodes[i]);
      }
      n.high_key = n.maxkey.back();
      parents.push_back(id);
    }
    link_level(parents);
    level_nodes = std::move(parents);
    ++level;
  }
  root_ = level_nodes.front();
  if (p_.replication) repl_->rebind(nodes_[root_].oid);
}

void DistributedBTree::link_level(const std::vector<std::uint32_t>& ids) {
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    nodes_[ids[i]].right = ids[i + 1];
  }
  // The rightmost node of every level covers the whole remaining key space.
  Node& last = nodes_[ids.back()];
  last.high_key = kMaxKey;
  if (!last.leaf) last.maxkey.back() = kMaxKey;
}

// ---------------------------------------------------------------------------
// Host-level tree logic
// ---------------------------------------------------------------------------

DistributedBTree::Step DistributedBTree::search_step(
    const Node& n, std::uint64_t key) const {
  if (key > n.high_key && n.right != kNone) {
    return Step{Step::Kind::kLateral, n.right, false, 0};
  }
  std::size_t idx = lower_index(n.maxkey.data(), n.maxkey.size(), key);
  if (n.leaf) {
    const bool found = idx != n.maxkey.size() && n.maxkey[idx] == key;
    return Step{Step::Kind::kLeaf, kNone, found, found ? n.payload[idx] : 0};
  }
  if (idx == n.maxkey.size()) idx = n.maxkey.size() - 1;  // high_key == MAX
  return Step{Step::Kind::kDescend,
              static_cast<std::uint32_t>(n.payload[idx]), false, 0};
}

unsigned DistributedBTree::probes(const Node& n) const {
  return log2probes(n.maxkey.size());
}

sim::Cycles DistributedBTree::search_cycles(const Node& n) const {
  // Search work scales with the node: the binary-search probes plus the
  // dense scan/compare over the located region. For the paper's 100-entry
  // nodes this dominates ("activations accessing smaller nodes require less
  // time to service", §4.2).
  return p_.search_base + p_.search_per_probe * probes(n) +
         p_.search_per_entry * static_cast<sim::Cycles>(n.maxkey.size());
}

sim::Cycles DistributedBTree::modify_cycles(const Node& n, bool split) const {
  // Shifting the entry array costs work proportional to the node size.
  return p_.modify_work +
         p_.modify_per_entry * static_cast<sim::Cycles>(n.maxkey.size()) +
         (split ? p_.split_work : 0);
}

void DistributedBTree::require_memory(Mechanism mech) const {
  if (mech == Mechanism::kSharedMemory && mem_ == nullptr) {
    throw std::invalid_argument(
        "DistributedBTree: shared memory needs a CoherentMemory");
  }
}

bool DistributedBTree::apply_entry_insert(Node& n, std::uint64_t key,
                                          std::uint64_t payload) {
  assert(n.leaf);
  const auto it = std::lower_bound(n.maxkey.begin(), n.maxkey.end(), key);
  const auto idx = static_cast<std::size_t>(it - n.maxkey.begin());
  if (it != n.maxkey.end() && *it == key) {
    n.payload[idx] = payload;  // duplicate: overwrite
    return false;
  }
  n.maxkey.insert(it, key);
  n.payload.insert(n.payload.begin() + static_cast<std::ptrdiff_t>(idx),
                   payload);
  return true;
}

bool DistributedBTree::apply_entry_remove(Node& n, std::uint64_t key) {
  assert(n.leaf);
  const auto it = std::lower_bound(n.maxkey.begin(), n.maxkey.end(), key);
  if (it == n.maxkey.end() || *it != key) return false;
  const auto idx = static_cast<std::size_t>(it - n.maxkey.begin());
  n.maxkey.erase(it);
  n.payload.erase(n.payload.begin() + static_cast<std::ptrdiff_t>(idx));
  // Lazy deletion: high_key and parent separators are left as-is; an empty
  // leaf simply routes traversals onward.
  return true;
}

std::uint32_t DistributedBTree::apply_split(std::uint32_t nid) {
  const std::uint32_t sid = alloc_node(nodes_[nid].leaf, nodes_[nid].level);
  Node& n = nodes_[nid];
  Node& s = nodes_[sid];
  const std::size_t h = n.maxkey.size() / 2;
  s.maxkey.assign(n.maxkey.begin() + static_cast<std::ptrdiff_t>(h),
                  n.maxkey.end());
  s.payload.assign(n.payload.begin() + static_cast<std::ptrdiff_t>(h),
                   n.payload.end());
  n.maxkey.resize(h);
  n.payload.resize(h);
  s.high_key = n.high_key;
  s.right = n.right;
  n.high_key = n.maxkey.back();
  n.right = sid;
  return sid;
}

void DistributedBTree::apply_parent_update(Node& parent,
                                           const SplitInfo& info) {
  const auto it = std::lower_bound(parent.maxkey.begin(), parent.maxkey.end(),
                                   info.right_max);
  const auto idx = static_cast<std::size_t>(it - parent.maxkey.begin());
  assert(it != parent.maxkey.end() && *it == info.right_max &&
         parent.payload[idx] == info.left &&
         "parent entry for the split child must be present");
  parent.maxkey[idx] = info.left_max;
  parent.maxkey.insert(parent.maxkey.begin() +
                           static_cast<std::ptrdiff_t>(idx) + 1,
                       info.right_max);
  parent.payload.insert(parent.payload.begin() +
                            static_cast<std::ptrdiff_t>(idx) + 1,
                        info.right);
}

// ---------------------------------------------------------------------------
// Simulation adapters
// ---------------------------------------------------------------------------

sim::Task<> DistributedBTree::charge_search_sm(Ctx& ctx, std::uint32_t nid,
                                               bool optimistic) {
  const Node& n = nodes_[nid];
  SmNode& sm = sm_[nid];
  const unsigned np = probes(n);
  const sim::Cycles cycles = search_cycles(n);
  // The requester reads the node's lines coherently. The search touches
  // the header plus a dense slice of the entry array — a binary search's
  // probes plus the final scan/copy region; for the 100-entry nodes of
  // §4.2 this is a substantial fraction of the node, which is why the
  // paper's SM caches hit so rarely on leaf data.
  const ProcId p = ctx.proc;
  for (;;) {
    std::uint64_t v = 0;
    if (optimistic) {
      // Wang-era concurrent B-trees take a shared (read) lock per node
      // visit: two read-modify-writes on the node's lock word, a line that
      // ping-pongs among all requesters -- the "data contention" the paper
      // describes at the root. Consistency of the snapshot itself is
      // enforced by the version check below.
      co_await mem_->write(p, sm.lock.addr(), 4);
      v = co_await sm.seq.begin_read(p);
    }
    co_await mem_->read(p, sm.base, 16);  // header
    const auto entries = static_cast<unsigned>(n.maxkey.size());
    const unsigned nreads = std::max({1u, np, entries / 3});
    const std::uint64_t entry_bytes = 16ull * (p_.max_entries + 1);
    const std::uint64_t stride = std::max<std::uint64_t>(16, entry_bytes / nreads);
    for (unsigned i = 0; i < nreads; ++i) {
      co_await mem_->read(p, sm.base + 16 + i * stride, 8);
    }
    co_await rt_->compute(ctx, cycles);
    if (!optimistic) co_return;
    co_await mem_->write(p, sm.lock.addr(), 4);  // release the read lock
    if (co_await sm.seq.validate(p, v)) co_return;
    // Torn read: a writer intervened; retry (charges again, as real
    // optimistic readers do).
  }
}

sim::Task<> DistributedBTree::charge_modify_sm(Ctx& ctx, std::uint32_t nid,
                                               bool split) {
  const Node& n = nodes_[nid];
  const shmem::Addr base = sm_[nid].base;
  const ProcId p = ctx.proc;
  // Entry insertion dirties the header plus the shifted tail of the entry
  // array (half the entries on average); a split additionally writes the
  // new sibling's half of the node.
  co_await mem_->write(p, base, 16);
  const auto entries = static_cast<unsigned>(n.maxkey.size());
  const unsigned shifted = std::max(2u, entries / 4);
  co_await mem_->write(p, base + 16, shifted * 16);
  if (split) {
    const Node& s = nodes_[n.right];  // freshly created sibling
    const std::uint64_t bytes = 16 + 16ull * s.maxkey.size();
    co_await mem_->write(p, sm_[n.right].base, static_cast<unsigned>(bytes));
  }
}

sim::Task<DistributedBTree::Step> DistributedBTree::visit_node(
    Ctx& ctx, Mechanism mech, std::uint32_t nid, std::uint64_t key) {
  const ProcId requester = ctx.proc;
  if (sim::Tracer* tr = rt_->tracer()) {
    tr->record(sim::TraceEvent::kBTreeNodeVisit, ctx.proc,
               {{"node", nid}, {"level", nodes_[nid].level}});
  }
  if (mech == Mechanism::kSharedMemory) {
    co_await charge_search_sm(ctx, nid, /*optimistic=*/true);
    co_return search_step(nodes_[nid], key);
  }
  if (policy_ != nullptr) {
    // Phase-flipped node: read it from the local replica instead of the
    // primary — same timing model as visit_root_replicated, and B-link
    // lateral moves absorb any staleness in the routing entries.
    if (core::Replicated* pr = policy_->replica_of(nodes_[nid].oid)) {
      co_await pr->ensure(ctx);
      const Node& n = nodes_[nid];
      co_await rt_->compute(ctx, search_cycles(n));
      policy_->on_access(n.oid, requester, /*write=*/false);
      co_return search_step(n, key);
    }
  }
  if (core::moves_to_data(mech)) {
    // <<< the annotation: move this activation to the node >>>
    co_await core::approach(ctx, mech, nodes_[nid].mobile, p_.frame_words,
                            p_.thread_state_words);
  }
  const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words,
                            /*short_method=*/false};
  co_return co_await rt_->call(
      ctx, nodes_[nid].oid, opts,
      [this, nid, key, requester](Ctx& callee) -> Task<Step> {
        const Node& n = nodes_[nid];
        if (policy_ != nullptr) {
          // The body runs at the node's home; the requester captured at
          // procedure entry is the profile's accessor.
          policy_->on_access(n.oid, requester, /*write=*/false);
        }
        co_await rt_->compute(callee, search_cycles(n));
        co_return search_step(n, key);
      });
}

sim::Task<DistributedBTree::Step> DistributedBTree::visit_root_replicated(
    Ctx& ctx, std::uint64_t key) {
  // Read the local root replica (fetch it first if invalid). The replica's
  // *timing* is simulated; its contents are read from the live node, which
  // is safe because B-link descents tolerate stale routing (lateral moves
  // recover).
  co_await repl_->ensure(ctx);
  const Node& r = nodes_[root_];
  co_await rt_->compute(ctx, search_cycles(r));
  co_return search_step(r, key);
}

sim::Task<bool> DistributedBTree::lookup(Ctx& ctx, Mechanism mech,
                                         std::uint64_t key,
                                         std::uint64_t* value_out) {
  require_memory(mech);
  const ProcId origin = ctx.proc;
  if (mech == Mechanism::kSharedMemory) {
    co_await mem_->read(ctx.proc, anchor_addr_, 8);  // root pointer
  }
  std::uint32_t cur = root_;
  bool use_repl = repl_ != nullptr && mech != Mechanism::kSharedMemory;
  bool found = false;
  std::uint64_t value = 0;
  for (;;) {
    Step s{};
    if (use_repl && cur == root_ && !nodes_[cur].leaf) {
      s = co_await visit_root_replicated(ctx, key);
    } else {
      s = co_await visit_node(ctx, mech, cur, key);
    }
    if (s.kind == Step::Kind::kLeaf) {
      found = s.found;
      value = s.value;
      break;
    }
    cur = s.next;
  }
  co_await rt_->return_home(ctx, origin, p_.rpc_ret_words);
  if (value_out != nullptr && found) *value_out = value;
  co_return found;
}

sim::Task<> DistributedBTree::lock_node(Ctx& ctx, Mechanism mech,
                                        std::uint32_t nid) {
  if (mech == Mechanism::kSharedMemory) {
    co_await sm_[nid].lock.acquire(ctx.proc);
  } else {
    co_await nodes_[nid].mutex.lock();
  }
}

sim::Task<> DistributedBTree::unlock_node(Ctx& ctx, Mechanism mech,
                                          std::uint32_t nid) {
  if (mech == Mechanism::kSharedMemory) {
    co_await sm_[nid].lock.release(ctx.proc);
  } else {
    nodes_[nid].mutex.unlock();
  }
}

sim::Task<DistributedBTree::InsertOutcome> DistributedBTree::insert_into_leaf(
    Ctx& ctx, Mechanism mech, std::uint32_t leaf, std::uint64_t key,
    std::uint64_t value) {
  const ProcId requester = ctx.proc;
  for (;;) {
    if (core::moves_to_data(mech)) {
      co_await core::approach(ctx, mech, nodes_[leaf].mobile, p_.frame_words,
                              p_.thread_state_words);
    }
    // Under RPC/CM the locked section below runs as a method at the leaf's
    // home; under SM it runs at the requester against coherent memory. The
    // body is identical either way (the annotation changes nothing
    // semantically), so we share it and only route the execution site.
    struct Attempt {
      bool lateral = false;
      std::uint32_t next = kNone;
      InsertOutcome out;
    };
    auto body = [this, mech, leaf, key, value,
                 requester](Ctx& at) -> Task<Attempt> {
      co_await lock_node(at, mech, leaf);
      Node& n = nodes_[leaf];
      if (key > n.high_key && n.right != kNone) {
        const std::uint32_t nxt = n.right;
        co_await unlock_node(at, mech, leaf);
        co_return Attempt{true, nxt, {}};
      }
      if (policy_ != nullptr) {
        policy_->on_access(n.oid, requester, /*write=*/true);
        co_await policy_->write_barrier(at, n.oid);
      }
      if (mech == Mechanism::kSharedMemory) {
        co_await charge_search_sm(at, leaf, /*optimistic=*/false);
      } else {
        co_await rt_->compute(at, search_cycles(n));
      }
      if (repl_ != nullptr && leaf == root_) {
        co_await repl_->invalidate_all(at);
      }
      if (mech == Mechanism::kSharedMemory) {
        co_await sm_[leaf].seq.begin_write(at.proc);
      }
      InsertOutcome out;
      out.inserted = apply_entry_insert(n, key, value);
      const bool overflow = n.maxkey.size() > p_.max_entries;
      if (overflow) {
        const std::uint32_t sid = apply_split(leaf);
        out.split = SplitInfo{leaf, sid, n.high_key, nodes_[sid].high_key,
                              n.level};
      }
      co_await rt_->compute(at, modify_cycles(n, overflow));
      if (mech == Mechanism::kSharedMemory) {
        co_await charge_modify_sm(at, leaf, overflow);
        co_await sm_[leaf].seq.end_write(at.proc);
      }
      // A split keeps the left node locked until its separator is installed
      // in the parent (prevents racing double-splits from confusing the
      // parent update).
      if (!overflow) co_await unlock_node(at, mech, leaf);
      co_return Attempt{false, kNone, out};
    };

    Attempt a{};
    if (mech == Mechanism::kSharedMemory) {
      Ctx here{rt_, ctx.proc};
      a = co_await body(here);
    } else {
      const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words, false};
      a = co_await rt_->call(ctx, nodes_[leaf].oid, opts, body);
    }
    if (a.lateral) {
      leaf = a.next;
      continue;
    }
    co_return a.out;
  }
}

sim::Task<> DistributedBTree::install_split(Ctx& ctx, Mechanism mech,
                                            Path path, SplitInfo info) {
  const ProcId requester = ctx.proc;
  for (;;) {
    if (path.empty()) {
      co_await split_root(ctx, mech, info);
      co_return;
    }
    std::uint32_t parent = path.pop();

    std::optional<SplitInfo> cascade;
    for (;;) {  // lateral loop at the parent level
      if (core::moves_to_data(mech)) {
        co_await core::approach(ctx, mech, nodes_[parent].mobile,
                                p_.frame_words, p_.thread_state_words);
      }
      struct Attempt {
        bool lateral = false;
        std::uint32_t next = kNone;
        std::optional<SplitInfo> cascade;
      };
      auto body = [this, mech, parent, info,
                   requester](Ctx& at) -> Task<Attempt> {
        co_await lock_node(at, mech, parent);
        Node& n = nodes_[parent];
        if (info.right_max > n.high_key && n.right != kNone) {
          const std::uint32_t nxt = n.right;
          co_await unlock_node(at, mech, parent);
          co_return Attempt{true, nxt, {}};
        }
        if (policy_ != nullptr) {
          policy_->on_access(n.oid, requester, /*write=*/true);
          co_await policy_->write_barrier(at, n.oid);
        }
        if (mech == Mechanism::kSharedMemory) {
          co_await charge_search_sm(at, parent, /*optimistic=*/false);
        } else {
          co_await rt_->compute(at, search_cycles(n));
        }
        if (repl_ != nullptr && parent == root_) {
          co_await repl_->invalidate_all(at);
        }
        if (mech == Mechanism::kSharedMemory) {
          co_await sm_[parent].seq.begin_write(at.proc);
        }
        apply_parent_update(n, info);
        Attempt a{};
        const bool overflow = n.maxkey.size() > p_.max_entries;
        if (overflow) {
          const std::uint32_t sid = apply_split(parent);
          a.cascade = SplitInfo{parent, sid, n.high_key, nodes_[sid].high_key,
                                n.level};
        }
        co_await rt_->compute(at, modify_cycles(n, overflow));
        if (mech == Mechanism::kSharedMemory) {
          co_await charge_modify_sm(at, parent, overflow);
          co_await sm_[parent].seq.end_write(at.proc);
        }
        // The child's separator is installed: release the child.
        co_await unlock_node(at, mech, info.left);
        if (!overflow) co_await unlock_node(at, mech, parent);
        co_return a;
      };

      Attempt a{};
      if (mech == Mechanism::kSharedMemory) {
        Ctx here{rt_, ctx.proc};
        a = co_await body(here);
      } else {
        const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words, false};
        a = co_await rt_->call(ctx, nodes_[parent].oid, opts, body);
      }
      if (a.lateral) {
        parent = a.next;
        continue;
      }
      cascade = a.cascade;
      break;
    }

    if (!cascade.has_value()) co_return;
    info = *cascade;
  }
}

sim::Task<> DistributedBTree::split_root(Ctx& ctx, Mechanism mech,
                                         SplitInfo info) {
  co_await tree_lock_.lock();
  if (root_ != info.left) {
    // Someone grew the tree above us since the descent began: find the
    // parent one level above the split and fall back to the normal path.
    tree_lock_.unlock();
    Path path;
    std::uint32_t cur = root_;
    while (nodes_[cur].level > info.level + 1) {
      const Step s = search_step(nodes_[cur], info.left_max);
      if (s.kind == Step::Kind::kLateral) {
        cur = s.next;
        continue;
      }
      path.push(cur);
      cur = s.next;
    }
    path.push(cur);
    co_await install_split(ctx, mech, std::move(path), info);
    co_return;
  }

  if (repl_ != nullptr) co_await repl_->invalidate_all(ctx);

  const std::uint32_t nr = alloc_node(false, info.level + 1);
  Node& r = nodes_[nr];
  r.maxkey = {info.left_max, info.right_max};
  r.payload = {info.left, info.right};
  r.high_key = kMaxKey;
  co_await rt_->compute(ctx, p_.modify_work + p_.split_work);
  if (mech == Mechanism::kSharedMemory) {
    co_await mem_->write(ctx.proc, sm_[nr].base, 48);
    co_await mem_->write(ctx.proc, anchor_addr_, 8);  // publish new root
  }
  root_ = nr;
  if (repl_ != nullptr) repl_->rebind(r.oid);
  co_await unlock_node(ctx, mech, info.left);
  tree_lock_.unlock();
}

sim::Task<bool> DistributedBTree::insert(Ctx& ctx, Mechanism mech,
                                         std::uint64_t key,
                                         std::uint64_t value) {
  if (key == kMaxKey) {
    throw std::invalid_argument("insert: the maximum key is reserved");
  }
  require_memory(mech);
  const ProcId origin = ctx.proc;
  if (mech == Mechanism::kSharedMemory) {
    co_await mem_->read(ctx.proc, anchor_addr_, 8);
  }
  // Updates route through the primary root: multi-version-memory replicas
  // serve reads, while writers descend via the authoritative copy (which is
  // also what keeps replica invalidation on the writer's path).
  const bool use_repl = false;
  Path path;
  std::uint32_t cur = root_;
  while (!nodes_[cur].leaf) {
    Step s{};
    if (use_repl && cur == root_) {
      s = co_await visit_root_replicated(ctx, key);
    } else {
      s = co_await visit_node(ctx, mech, cur, key);
    }
    if (s.kind == Step::Kind::kDescend) {
      path.push(cur);
      cur = s.next;
    } else if (s.kind == Step::Kind::kLateral) {
      cur = s.next;
    } else {
      break;  // defensive: cannot happen on internal nodes
    }
  }

  const InsertOutcome out = co_await insert_into_leaf(ctx, mech, cur, key,
                                                      value);
  if (out.split.has_value()) {
    co_await install_split(ctx, mech, std::move(path), *out.split);
  }
  co_await rt_->return_home(ctx, origin, p_.rpc_ret_words);
  co_return out.inserted;
}

sim::Task<bool> DistributedBTree::remove(Ctx& ctx, Mechanism mech,
                                         std::uint64_t key) {
  require_memory(mech);
  const ProcId origin = ctx.proc;
  if (mech == Mechanism::kSharedMemory) {
    co_await mem_->read(ctx.proc, anchor_addr_, 8);
  }
  std::uint32_t cur = root_;
  while (!nodes_[cur].leaf) {
    const Step s = co_await visit_node(ctx, mech, cur, key);
    cur = s.next;  // kDescend and kLateral both carry the next node
  }

  bool removed = false;
  for (;;) {  // lateral loop at the leaf level
    if (core::moves_to_data(mech)) {
      co_await core::approach(ctx, mech, nodes_[cur].mobile, p_.frame_words,
                              p_.thread_state_words);
    }
    struct Attempt {
      bool lateral = false;
      std::uint32_t next = kNone;
      bool removed = false;
    };
    auto body = [this, mech, cur, key, origin](Ctx& at) -> Task<Attempt> {
      co_await lock_node(at, mech, cur);
      Node& n = nodes_[cur];
      if (key > n.high_key && n.right != kNone) {
        const std::uint32_t nxt = n.right;
        co_await unlock_node(at, mech, cur);
        co_return Attempt{true, nxt, false};
      }
      if (policy_ != nullptr) {
        policy_->on_access(n.oid, origin, /*write=*/true);
        co_await policy_->write_barrier(at, n.oid);
      }
      if (mech == Mechanism::kSharedMemory) {
        co_await charge_search_sm(at, cur, /*optimistic=*/false);
      } else {
        co_await rt_->compute(at, search_cycles(n));
      }
      if (repl_ != nullptr && cur == root_) {
        co_await repl_->invalidate_all(at);
      }
      if (mech == Mechanism::kSharedMemory) {
        co_await sm_[cur].seq.begin_write(at.proc);
      }
      const bool did = apply_entry_remove(n, key);
      co_await rt_->compute(at, modify_cycles(n, /*split=*/false));
      if (mech == Mechanism::kSharedMemory) {
        co_await charge_modify_sm(at, cur, /*split=*/false);
        co_await sm_[cur].seq.end_write(at.proc);
      }
      co_await unlock_node(at, mech, cur);
      co_return Attempt{false, kNone, did};
    };
    Attempt a{};
    if (mech == Mechanism::kSharedMemory) {
      Ctx here{rt_, ctx.proc};
      a = co_await body(here);
    } else {
      const core::CallOpts opts{p_.rpc_arg_words, p_.rpc_ret_words, false};
      a = co_await rt_->call(ctx, nodes_[cur].oid, opts, body);
    }
    if (a.lateral) {
      cur = a.next;
      continue;
    }
    removed = a.removed;
    break;
  }
  co_await rt_->return_home(ctx, origin, p_.rpc_ret_words);
  co_return removed;
}

// ---------------------------------------------------------------------------
// Host-level inspection
// ---------------------------------------------------------------------------

std::size_t DistributedBTree::num_keys() const {
  std::size_t n = 0;
  for (std::uint32_t l = leftmost_leaf(); l != kNone; l = nodes_[l].right) {
    n += nodes_[l].maxkey.size();
  }
  return n;
}

unsigned DistributedBTree::height() const {
  return nodes_[root_].level + 1;
}

unsigned DistributedBTree::root_children() const {
  return static_cast<unsigned>(nodes_[root_].payload.size());
}

std::uint32_t DistributedBTree::leftmost_leaf() const {
  std::uint32_t cur = root_;
  while (!nodes_[cur].leaf) cur = static_cast<std::uint32_t>(nodes_[cur].payload.front());
  return cur;
}

std::vector<std::uint64_t> DistributedBTree::keys_host() const {
  std::vector<std::uint64_t> out;
  for (std::uint32_t l = leftmost_leaf(); l != kNone; l = nodes_[l].right) {
    out.insert(out.end(), nodes_[l].maxkey.begin(), nodes_[l].maxkey.end());
  }
  return out;
}

std::uint64_t DistributedBTree::digest_host() const {
  // Commutative accumulation of a mixed per-pair hash: insensitive to leaf
  // boundaries and insertion order, sensitive to any key or value change.
  std::uint64_t acc = 0;
  for (std::uint32_t l = leftmost_leaf(); l != kNone; l = nodes_[l].right) {
    const Node& n = nodes_[l];
    for (std::size_t i = 0; i < n.maxkey.size(); ++i) {
      std::uint64_t h =
          n.maxkey[i] * 0x9e3779b97f4a7c15ULL ^ (n.payload[i] + 0x1ULL);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      acc += h;
    }
  }
  return acc;
}

bool DistributedBTree::contains_host(std::uint64_t key) const {
  std::uint32_t cur = root_;
  for (;;) {
    const Step s = search_step(nodes_[cur], key);
    if (s.kind == Step::Kind::kLeaf) return s.found;
    cur = s.next;
  }
}

bool DistributedBTree::check_invariants(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Per-node structure.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.maxkey.size() != n.payload.size()) {
      return fail("entry arrays disagree at node " + std::to_string(i));
    }
    if (n.maxkey.size() > p_.max_entries + 1) {
      return fail("node over capacity at " + std::to_string(i));
    }
    // One pass checks that the keys strictly increase. A descent anywhere
    // in the node is reported before an equal pair anywhere in it.
    bool duplicate = false;
    for (std::size_t j = 1; j < n.maxkey.size(); ++j) {
      if (n.maxkey[j] < n.maxkey[j - 1]) {
        return fail("unsorted node " + std::to_string(i));
      }
      duplicate |= n.maxkey[j] == n.maxkey[j - 1];
    }
    if (duplicate) {
      return fail("duplicate bound in node " + std::to_string(i));
    }
    if (!n.maxkey.empty() && n.maxkey.back() > n.high_key) {
      return fail("entry exceeds high key at node " + std::to_string(i));
    }
    if (!n.leaf && !n.maxkey.empty() && n.maxkey.back() != n.high_key) {
      return fail("internal last bound != high key at " + std::to_string(i));
    }
  }
  // Reachability, uniform depth, global ordering via each level's chain.
  // Keys strictly increase within each node (above), so a level is in
  // order when each non-empty node's first key exceeds the last key before
  // it on the level.
  std::uint32_t level_head = root_;
  unsigned expect_level = nodes_[root_].level;
  while (true) {
    std::uint64_t prev = 0;
    bool first = true;
    std::uint32_t last = kNone;
    for (std::uint32_t n = level_head; n != kNone; n = nodes_[n].right) {
      if (nodes_[n].level != expect_level) return fail("ragged level");
      const std::vector<std::uint64_t>& keys = nodes_[n].maxkey;
      if (!keys.empty()) {
        if (!first && keys.front() <= prev) {
          return fail("cross-node order violation");
        }
        prev = keys.back();
        first = false;
      }
      if (nodes_[n].right != kNone &&
          nodes_[n].high_key == kMaxKey) {
        return fail("non-rightmost node with open high key");
      }
      last = n;
    }
    if (last == kNone || nodes_[last].high_key != kMaxKey) {
      return fail("rightmost node must cover the key space");
    }
    if (nodes_[level_head].leaf) break;
    level_head = static_cast<std::uint32_t>(nodes_[level_head].payload.front());
    --expect_level;
  }
  // Parent entries bound their children.
  for (const Node& n : nodes_) {
    if (n.leaf) continue;
    for (std::size_t e = 0; e < n.maxkey.size(); ++e) {
      const Node& child = nodes_[static_cast<std::uint32_t>(n.payload[e])];
      if (child.high_key != n.maxkey[e]) {
        return fail("child high key disagrees with parent entry");
      }
    }
  }
  return true;
}

}  // namespace cm::apps
