#include "apps/btree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <coroutine>
#include <functional>
#include <stdexcept>

#include "apps/node_access.h"
#include "policy/policy.h"

namespace cm::apps {

using core::Ctx;
using core::Mechanism;
using sim::ProcId;
using sim::Task;

namespace {
// User code, charged under every mechanism.
constexpr sim::Cycles kSearchBase = 20;     // per node visit
constexpr sim::Cycles kSearchPerProbe = 6;  // per binary-search probe
constexpr sim::Cycles kSearchPerEntry = 8;  // scan/compare over the entries
constexpr sim::Cycles kModifyWork = 40;     // leaf/parent entry insertion
constexpr sim::Cycles kModifyPerEntry = 4;  // shifting the entry array
constexpr sim::Cycles kSplitWork = 120;     // building a sibling
constexpr unsigned kFrameWords = 10;        // migrated activation size
constexpr unsigned kThreadStateWords = 96;  // whole-thread migration payload
// General-stub RPC envelopes (key, op descriptor, linkage, result
// record): the paper's Table 1+2 bandwidth/throughput quotients imply
// ~30 words per RPC message vs ~12 per migration message.
constexpr unsigned kRpcArgWords = 12;
constexpr unsigned kRpcRetWords = 12;

/// ceil(log2(n+1)): binary-search probes into an n-entry node.
unsigned log2probes(std::size_t n) {
  return n == 0 ? 0u : static_cast<unsigned>(std::bit_width(n));
}

/// User-code cycles to search an `entries`-entry node. Search work scales
/// with the node: the binary-search probes plus the dense scan/compare over
/// the located region. For the paper's 100-entry nodes this dominates
/// ("activations accessing smaller nodes require less time to service",
/// §4.2).
sim::Cycles search_cycles(std::size_t entries) {
  return kSearchBase + kSearchPerProbe * log2probes(entries) +
         kSearchPerEntry * static_cast<sim::Cycles>(entries);
}

/// User-code cycles to modify a node of `entries` entries, counted after
/// the change, plus the sibling's build when it split: shifting the entry
/// array costs work proportional to the node size.
sim::Cycles modify_cycles(std::size_t entries, bool split) {
  return kModifyWork + kModifyPerEntry * static_cast<sim::Cycles>(entries) +
         (split ? kSplitWork : 0);
}

constexpr const char* kUnboundChild =
    "child high key disagrees with parent entry";

/// A stored (key, value) pair's term in digest_host's commutative sum.
std::uint64_t pair_hash(std::uint64_t key, std::uint64_t value) {
  std::uint64_t h = key * 0x9e3779b97f4a7c15ULL ^ (value + 0x1ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
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
    // A root fetch ships ~3 words per entry (a 64-bit key and a payload),
    // bounded below for tiny roots.
    repl_ = std::make_unique<core::Replicated>(
        rt, nodes_[root_].oid,
        std::max(8u, 3u * std::min<unsigned>(p_.max_entries, 16u)));
  }
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
  Node& n = nodes_.emplace_back(leaf, level, oid, *rt_, 2 + 3 * p_.max_entries);
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
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
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

DistributedBTree::Update DistributedBTree::insert_entry(std::uint32_t nid,
                                                       std::uint64_t key,
                                                       std::uint64_t value) {
  Node& n = nodes_[nid];
  assert(n.leaf);
  const auto it = std::lower_bound(n.maxkey.begin(), n.maxkey.end(), key);
  const auto idx = static_cast<std::size_t>(it - n.maxkey.begin());
  const bool fresh = it == n.maxkey.end() || *it != key;
  if (fresh) {
    n.maxkey.insert(it, key);
    n.payload.insert(n.payload.begin() + static_cast<std::ptrdiff_t>(idx),
                     value);
  } else {
    n.payload[idx] = value;  // duplicate: overwrite
  }
  return Update{.changed = fresh, .split = split_if_full(nid)};
}

DistributedBTree::Update DistributedBTree::remove_entry(std::uint32_t nid,
                                                       std::uint64_t key) {
  Node& n = nodes_[nid];
  assert(n.leaf);
  const auto it = std::lower_bound(n.maxkey.begin(), n.maxkey.end(), key);
  if (it == n.maxkey.end() || *it != key) return Update{};
  const auto idx = static_cast<std::size_t>(it - n.maxkey.begin());
  n.maxkey.erase(it);
  n.payload.erase(n.payload.begin() + static_cast<std::ptrdiff_t>(idx));
  // Lazy deletion: high_key and parent separators are left as-is; an empty
  // leaf simply routes traversals onward.
  return Update{.changed = true};
}

std::optional<DistributedBTree::SplitInfo> DistributedBTree::split_if_full(
    std::uint32_t nid) {
  if (nodes_[nid].maxkey.size() <= p_.max_entries) return std::nullopt;
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
  return SplitInfo{nid, sid, n.high_key, s.high_key, n.level};
}

DistributedBTree::Update DistributedBTree::install_separator(
    std::uint32_t nid, const SplitInfo& info) {
  Node& parent = nodes_[nid];
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
  return Update{.split = split_if_full(nid), .release = info.left};
}

// ---------------------------------------------------------------------------
// The node-access layer: where a node access runs, and what locking,
// searching and changing the node cost there
// ---------------------------------------------------------------------------

/// Shared memory: an access runs at the requester against the node's
/// coherent lines; an update holds its SpinLock and brackets the change with
/// its SeqLock. Caches replicate read-shared lines; reads skip the profile.
class DistributedBTree::Coherent {
  using Id = std::uint32_t;
  using Access = shmem::CoherentMemory::Access;

 public:
  static constexpr bool kReplicas = false;  // no replica_of

  explicit Coherent(DistributedBTree* bt) : bt_(bt) {}

  template <class F>
  auto at_node(Ctx& ctx, Id, F body) const { return RunHere(ctx, body); }
  Task<> lock(Ctx& at, Id n) const { return sm(n).lock.acquire(at.proc); }
  Task<> unlock(Ctx& at, Id n) const { return sm(n).lock.release(at.proc); }
  Task<> begin_write(Ctx& at, Id n) const {
    return sm(n).seq.begin_write(at.proc);
  }
  Task<> end_write(Ctx& at, Id n) const { return sm(n).seq.end_write(at.proc); }
  // The root pointer's word: read at each operation's start, written when a
  // root split publishes the new root's lines.
  Access read_root(Ctx& ctx) const { return anchor(ctx, false); }
  Access write_root(Ctx& ctx) const { return anchor(ctx, true); }
  Access write_node(Ctx& ctx, Id n, unsigned bytes) const {
    return bt_->mem_->write(ctx.proc, sm(n).base, bytes);
  }
  core::Replicated* root_replica() const { return nullptr; }
  void note_read(Id /*nid*/, ProcId /*requester*/) const {}

  /// Examine node `nid` at the requester: the coherent reads
  /// (seqlock-validated when `optimistic`) around the search's compute. Like
  /// charge_modify, it is awaited by the body holding this layer object.
  Task<> charge_search(Ctx& ctx, Id nid, bool optimistic) const {
    DistributedBTree& bt = *bt_;
    const Node& n = bt.nodes_[nid];
    SmNode& sm = bt.sm_[nid];
    const unsigned np = log2probes(n.maxkey.size());
    const sim::Cycles cycles = search_cycles(n.maxkey.size());
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
        // visit: two read-modify-writes on the node's lock word, a line
        // that ping-pongs among all requesters -- the "data contention" the
        // paper describes at the root. Consistency of the snapshot itself
        // is enforced by the version check below.
        co_await bt.mem_->write(p, sm.lock.addr(), 4);
        v = co_await sm.seq.begin_read(p);
      }
      co_await bt.mem_->read(p, sm.base, 16);  // header
      const auto entries = static_cast<unsigned>(n.maxkey.size());
      const unsigned nreads = std::max({1u, np, entries / 3});
      const std::uint64_t entry_bytes = 16ull * (bt.p_.max_entries + 1);
      const std::uint64_t stride =
          std::max<std::uint64_t>(16, entry_bytes / nreads);
      for (unsigned i = 0; i < nreads; ++i) {
        co_await bt.mem_->read(p, sm.base + 16 + i * stride, 8);
      }
      co_await bt.rt_->compute(ctx, cycles);
      if (!optimistic) co_return;
      co_await bt.mem_->write(p, sm.lock.addr(), 4);  // release the read lock
      if (co_await sm.seq.validate(p, v)) co_return;
      // Torn read: a writer intervened; retry (charges again, as real
      // optimistic readers do).
    }
  }

  /// Modify node `nid`: the modify_cycles compute, then the coherent
  /// writes. Entry insertion dirties the header plus the shifted tail of
  /// the entry array (half the entries on average); a split additionally
  /// writes the new sibling's half of the node.
  Task<> charge_modify(Ctx& ctx, Id nid, bool split) const {
    DistributedBTree& bt = *bt_;
    const Node& n = bt.nodes_[nid];
    const shmem::Addr base = bt.sm_[nid].base;
    const ProcId p = ctx.proc;
    co_await bt.rt_->compute(ctx, modify_cycles(n.maxkey.size(), split));
    co_await bt.mem_->write(p, base, 16);
    const auto entries = static_cast<unsigned>(n.maxkey.size());
    const unsigned shifted = std::max(2u, entries / 4);
    co_await bt.mem_->write(p, base + 16, shifted * 16);
    if (split) {
      const Node& s = bt.nodes_[n.right];  // freshly created sibling
      const std::uint64_t bytes = 16 + 16ull * s.maxkey.size();
      co_await bt.mem_->write(p, bt.sm_[n.right].base,
                              static_cast<unsigned>(bytes));
    }
  }

 private:
  SmNode& sm(Id n) const { return bt_->sm_[n]; }
  Access anchor(Ctx& ctx, bool write) const {
    return write ? bt_->mem_->write(ctx.proc, bt_->anchor_addr_, 8)
                 : bt_->mem_->read(ctx.proc, bt_->anchor_addr_, 8);
  }

  DistributedBTree* bt_;
};

/// Message passing (RPC, CP, OBJ, TM): an access is a method at the node's
/// home (core::visit), under its AsyncMutex; searching or changing the
/// node costs one compute. Reads may use the root's or the policy's replica.
class DistributedBTree::Messages {
  using Id = std::uint32_t;

 public:
  static constexpr bool kReplicas = true;

  Messages(DistributedBTree* bt, Mechanism mech) : bt_(bt), mech_(mech) {}

  template <class F>
  auto at_node(Ctx& ctx, Id n, F body) const {
    return core::visit(ctx, mech_, node(n).mobile,
                       core::CallOpts{kRpcArgWords, kRpcRetWords, false},
                       kFrameWords, kThreadStateWords, body);
  }
  sim::AsyncMutex::Awaiter lock(Ctx&, Id n) const {
    return node(n).mutex.lock();
  }
  std::suspend_never unlock(Ctx&, Id n) const {
    node(n).mutex.unlock();
    return {};
  }
  std::suspend_never begin_write(Ctx&, Id) const { return {}; }
  std::suspend_never end_write(Ctx&, Id) const { return {}; }
  sim::Machine::Compute charge_search(Ctx& at, Id n, bool) const {
    return bt_->rt_->compute(at, search_cycles(node(n).maxkey.size()));
  }
  sim::Machine::Compute charge_modify(Ctx& at, Id n, bool split) const {
    return bt_->rt_->compute(at, modify_cycles(node(n).maxkey.size(), split));
  }
  std::suspend_never read_root(Ctx&) const { return {}; }
  std::suspend_never write_root(Ctx&) const { return {}; }
  std::suspend_never write_node(Ctx&, Id, unsigned) const { return {}; }
  core::Replicated* root_replica() const { return bt_->repl_.get(); }
  core::Replicated* replica_of(Id n) const {
    return bt_->policy_ == nullptr ? nullptr
                                   : bt_->policy_->replica_of(node(n).oid);
  }
  void note_read(Id n, ProcId requester) const {
    if (bt_->policy_ != nullptr) {
      bt_->policy_->on_access(node(n).oid, requester, /*write=*/false);
    }
  }

 private:
  Node& node(Id n) const { return bt_->nodes_[n]; }

  DistributedBTree* bt_;
  Mechanism mech_;
};

// ---------------------------------------------------------------------------
// Wang's algorithm, written once over the node-access layer
// ---------------------------------------------------------------------------

template <class A>
core::Replicated* DistributedBTree::start_visit(const Ctx& ctx, A acc,
                                                std::uint32_t nid) const {
  if (sim::Tracer* tr = rt_->tracer()) {
    tr->record(sim::TraceEvent::kBTreeNodeVisit, ctx.proc,
               {{"node", nid}, {"level", nodes_[nid].level}});
  }
  if constexpr (A::kReplicas) {
    // A phase-flipped node is read from the local replica instead of the
    // primary: B-link lateral moves absorb any staleness in its routing.
    return acc.replica_of(nid);
  } else {
    return nullptr;
  }
}

template <class A>
auto DistributedBTree::visit_node(Ctx& ctx, A acc, std::uint32_t nid,
                                  std::uint64_t key) {
  const ProcId requester = ctx.proc;
  return acc.at_node(ctx, nid,
                     [this, acc, nid, key, requester](Ctx& at) -> Task<Step> {
                       acc.note_read(nid, requester);
                       co_await acc.charge_search(at, nid, /*optimistic=*/true);
                       co_return search_step(nodes_[nid], key);
                     });
}

Task<DistributedBTree::Step> DistributedBTree::read_replica(
    Ctx& ctx, core::Replicated& copy, std::uint32_t nid, std::uint64_t key) {
  const ProcId requester = ctx.proc;
  co_await copy.ensure(ctx);
  const Node& n = nodes_[nid];
  co_await rt_->compute(ctx, search_cycles(n.maxkey.size()));
  policy_->on_access(n.oid, requester, /*write=*/false);
  co_return search_step(n, key);
}

template <class A, class Edit>
auto DistributedBTree::update_locked(Ctx& ctx, A acc, ProcId accessor,
                                     std::uint32_t nid, std::uint64_t route_key,
                                     Edit edit) {
  return acc.at_node(
      ctx, nid,
      [this, acc, accessor, nid, route_key, edit](Ctx& at) -> Task<Update> {
        co_await acc.lock(at, nid);
        Node& n = nodes_[nid];
        if (route_key > n.high_key && n.right != kNone) {
          const std::uint32_t right = n.right;
          co_await acc.unlock(at, nid);
          co_return Update{.right = right};
        }
        if (policy_ != nullptr) {
          policy_->on_access(n.oid, accessor, /*write=*/true);
          co_await policy_->write_barrier(at, n.oid);
        }
        co_await acc.charge_search(at, nid, /*optimistic=*/false);
        if (repl_ != nullptr && nid == root_) {
          co_await repl_->invalidate_all(at);
        }
        co_await acc.begin_write(at, nid);
        const Update u = edit(nid);
        co_await acc.charge_modify(at, nid, u.split.has_value());
        co_await acc.end_write(at, nid);
        // A split node stays locked until the edit that installs its
        // separator in the parent releases it (no racing double-splits).
        if (u.release != kNone) co_await acc.unlock(at, u.release);
        if (!u.split.has_value()) co_await acc.unlock(at, nid);
        co_return u;
      });
}

Task<bool> DistributedBTree::lookup(Ctx& ctx, Mechanism mech,
                                    std::uint64_t key,
                                    std::uint64_t* value_out) {
  return with_access(
      mech, mem_, Coherent{this}, Messages{this, mech},
      [&](auto acc) { return lookup_via(ctx, acc, key, value_out); });
}

Task<bool> DistributedBTree::insert(Ctx& ctx, Mechanism mech,
                                    std::uint64_t key, std::uint64_t value) {
  if (key == kMaxKey) {
    return rejected<bool>(
        std::invalid_argument("insert: the maximum key is reserved"));
  }
  return with_access(
      mech, mem_, Coherent{this}, Messages{this, mech}, [&](auto acc) {
        return write_via(ctx, acc, key, [this, key, value](std::uint32_t nid) {
          return insert_entry(nid, key, value);
        });
      });
}

Task<bool> DistributedBTree::remove(Ctx& ctx, Mechanism mech,
                                    std::uint64_t key) {
  return with_access(
      mech, mem_, Coherent{this}, Messages{this, mech}, [&](auto acc) {
        return write_via(ctx, acc, key, [this, key](std::uint32_t nid) {
          return remove_entry(nid, key);
        });
      });
}

template <class A>
Task<bool> DistributedBTree::lookup_via(Ctx& ctx, A acc, std::uint64_t key,
                                        std::uint64_t* value_out) {
  const ProcId origin = ctx.proc;
  co_await acc.read_root(ctx);
  core::Replicated* const root_copy = acc.root_replica();
  std::uint32_t cur = root_;
  Step s{};
  for (;;) {
    if (root_copy != nullptr && cur == root_ && !nodes_[cur].leaf) {
      // Read the local root replica (fetch it first if invalid). Its timing
      // is simulated; its contents are read from the live node, which is
      // safe because B-link descents tolerate stale routing (lateral moves
      // recover).
      co_await root_copy->ensure(ctx);
      const Node& r = nodes_[root_];
      co_await rt_->compute(ctx, search_cycles(r.maxkey.size()));
      s = search_step(r, key);
    } else if (core::Replicated* copy = start_visit(ctx, acc, cur)) {
      s = co_await read_replica(ctx, *copy, cur, key);
    } else {
      s = co_await visit_node(ctx, acc, cur, key);
    }
    if (s.kind == Step::Kind::kLeaf) break;
    cur = s.next;
  }
  co_await rt_->return_home(ctx, origin, kRpcRetWords);
  if (value_out != nullptr && s.found) *value_out = s.value;
  co_return s.found;
}

template <class A, class Edit>
Task<bool> DistributedBTree::write_via(Ctx& ctx, A acc, std::uint64_t key,
                                       Edit edit) {
  const ProcId origin = ctx.proc;
  co_await acc.read_root(ctx);
  // Updates route through the primary root: multi-version-memory replicas
  // serve reads, while writers descend via the authoritative copy (which is
  // also what keeps replica invalidation on the writer's path).
  Path path;
  std::uint32_t cur = root_;
  while (!nodes_[cur].leaf) {
    Step s;
    if (core::Replicated* copy = start_visit(ctx, acc, cur)) {
      s = co_await read_replica(ctx, *copy, cur, key);
    } else {
      s = co_await visit_node(ctx, acc, cur, key);
    }
    if (s.kind == Step::Kind::kDescend) path.push(cur);
    cur = s.next;  // kDescend and kLateral both carry the next node
  }
  // The leaf write comes from where the activation arrives from, as a
  // visit's read does.
  const ProcId accessor = ctx.proc;
  Update u;
  for (;;) {  // lateral moves at the leaf level
    u = co_await update_locked(ctx, acc, accessor, cur, key, edit);
    if (u.right == kNone) break;
    cur = u.right;
  }
  if (u.split.has_value()) {
    co_await install_split(ctx, acc, std::move(path), *u.split);
  }
  co_await rt_->return_home(ctx, origin, kRpcRetWords);
  co_return u.changed;
}

template <class A>
Task<> DistributedBTree::install_split(Ctx& ctx, A acc, Path path,
                                       SplitInfo info) {
  const ProcId accessor = ctx.proc;  // for the whole cascade
  while (!path.empty()) {
    std::uint32_t parent = path.pop();
    Update u;
    for (;;) {  // lateral moves at the parent level
      u = co_await update_locked(ctx, acc, accessor, parent, info.right_max,
                                 [this, info](std::uint32_t nid) {
                                   return install_separator(nid, info);
                                 });
      if (u.right == kNone) break;
      parent = u.right;
    }
    if (!u.split.has_value()) co_return;
    info = *u.split;
  }
  co_await split_root(ctx, acc, info);
}

template <class A>
Task<> DistributedBTree::split_root(Ctx& ctx, A acc, SplitInfo info) {
  co_await tree_lock_.lock();
  if (root_ != info.left) {
    // Someone grew the tree above us since the descent began: find the
    // parent one level above the split and fall back to the normal path.
    tree_lock_.unlock();
    Path path;
    std::uint32_t cur = root_;
    while (nodes_[cur].level > info.level + 1) {
      const Step s = search_step(nodes_[cur], info.left_max);
      if (s.kind == Step::Kind::kDescend) path.push(cur);
      cur = s.next;
    }
    path.push(cur);
    co_await install_split(ctx, acc, std::move(path), info);
    co_return;
  }

  if (repl_ != nullptr) co_await repl_->invalidate_all(ctx);

  const std::uint32_t nr = alloc_node(false, info.level + 1);
  Node& r = nodes_[nr];
  r.maxkey = {info.left_max, info.right_max};
  r.payload = {info.left, info.right};
  r.high_key = kMaxKey;
  co_await rt_->compute(ctx, kModifyWork + kSplitWork);
  co_await acc.write_node(ctx, nr, 48);
  co_await acc.write_root(ctx);  // publish the new root
  root_ = nr;
  if (repl_ != nullptr) repl_->rebind(r.oid);
  co_await acc.unlock(ctx, info.left);
  tree_lock_.unlock();
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
  while (!nodes_[cur].leaf) {
    cur = static_cast<std::uint32_t>(nodes_[cur].payload.front());
  }
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
    // Pairs only: a broken node's arrays may differ in length.
    const std::size_t pairs = std::min(n.maxkey.size(), n.payload.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      acc += pair_hash(n.maxkey[i], n.payload[i]);
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

const char* DistributedBTree::node_flaw(const Node& n) const {
  if (n.maxkey.size() != n.payload.size()) {
    return "entry arrays disagree at node ";
  }
  if (n.maxkey.size() > p_.max_entries + 1) return "node over capacity at ";
  // One pass checks that the keys strictly increase. A descent anywhere in
  // the node is reported before an equal pair anywhere in it.
  bool duplicate = false;
  for (std::size_t j = 1; j < n.maxkey.size(); ++j) {
    if (n.maxkey[j] < n.maxkey[j - 1]) return "unsorted node ";
    duplicate |= n.maxkey[j] == n.maxkey[j - 1];
  }
  if (duplicate) return "duplicate bound in node ";
  if (!n.maxkey.empty() && n.maxkey.back() > n.high_key) {
    return "entry exceeds high key at node ";
  }
  if (!n.leaf && !n.maxkey.empty() && n.maxkey.back() != n.high_key) {
    return "internal last bound != high key at ";
  }
  return nullptr;
}

bool DistributedBTree::bounds_children(const Node& n) const {
  if (n.leaf) return true;
  for (std::size_t e = 0; e < n.maxkey.size(); ++e) {
    if (nodes_[static_cast<std::uint32_t>(n.payload[e])].high_key !=
        n.maxkey[e]) {
      return false;
    }
  }
  return true;
}

template <class Meet>
const char* DistributedBTree::walk_levels(Meet meet) const {
  // Keys strictly increase within each node (node_flaw), so a level is in
  // order when each non-empty node's first key exceeds the last key before
  // it on the level.
  std::uint32_t level_head = root_;
  unsigned expect_level = nodes_[root_].level;
  for (;;) {
    const bool leaves = nodes_[level_head].leaf;
    std::uint64_t prev = 0;
    bool first = true;
    std::uint32_t last = kNone;
    for (std::uint32_t id = level_head; id != kNone; id = nodes_[id].right) {
      const Node& n = nodes_[id];
      if (n.level != expect_level) return "ragged level";
      if (!n.maxkey.empty()) {
        if (!first && n.maxkey.front() <= prev) {
          return "cross-node order violation";
        }
        prev = n.maxkey.back();
        first = false;
      }
      if (n.right != kNone && n.high_key == kMaxKey) {
        return "non-rightmost node with open high key";
      }
      if (const char* refused = meet(n, leaves)) return refused;
      last = id;
    }
    if (last == kNone || nodes_[last].high_key != kMaxKey) {
      return "rightmost node must cover the key space";
    }
    if (leaves) return nullptr;
    level_head = static_cast<std::uint32_t>(nodes_[level_head].payload.front());
    --expect_level;
  }
}

bool DistributedBTree::check_invariants(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Per-node structure.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (const char* flaw = node_flaw(nodes_[i])) {
      return fail(flaw + std::to_string(i));
    }
  }
  // Reachability, uniform depth, global ordering via each level's chain.
  const auto pass = [](const Node&, bool) -> const char* { return nullptr; };
  if (const char* broken = walk_levels(pass)) return fail(broken);
  // Parent entries bound their children.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!bounds_children(nodes_[i])) return fail(kUnboundChild);
  }
  return true;
}

std::optional<DistributedBTree::Audit> DistributedBTree::audit_walk() const {
  Audit a{.ok = true};
  std::uint32_t met = 0;
  const char* broken =
      walk_levels([&](const Node& n, bool leaves) -> const char* {
        if (const char* flaw = node_flaw(n)) return flaw;
        if (!bounds_children(n)) return kUnboundChild;
        ++met;
        if (leaves) {
          a.keys += n.maxkey.size();
          for (std::size_t i = 0; i < n.maxkey.size(); ++i) {
            a.digest += pair_hash(n.maxkey[i], n.payload[i]);
          }
        }
        return nullptr;
      });
  // On a sound tree the walk meets every node once.
  if (broken != nullptr || met != nodes_.size()) return std::nullopt;
  return a;
}

DistributedBTree::Audit DistributedBTree::audit() const {
  if (const std::optional<Audit> a = audit_walk()) return *a;
  return Audit{num_keys(), digest_host(), check_invariants()};
}

}  // namespace cm::apps
