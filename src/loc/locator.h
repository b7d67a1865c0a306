// Distributed object location: the mechanistic replacement for the
// ObjectSpace oracle.
//
// On a real message-passing machine no processor has an omniscient view of
// where every object lives. What it has (and what this subsystem models):
//
//  * a DIRECTORY SHARD: each object has exactly one directory entry, held
//    on the processor its id hashes to (or, under the owner-home policy, on
//    its creation home). The entry records the last committed owner and
//    serialises movers — this is where Emerald hangs an object's "anchor".
//  * a TRANSLATION CACHE: a small per-processor LRU of ObjectId -> ProcId
//    hints, standing in for the software global-object table whose 36-cycle
//    lookup Table 5 charges (0 with J-Machine-style hardware translation).
//  * FORWARDING POINTERS: when a MobileObject departs, the old host keeps a
//    pointer to where it went. A request that lands on a stale host takes
//    the 23-cycle forwarding check, loses, and bounces one hop along the
//    pointer ("sorry, moved — try there"); when the request finally finds
//    the object, every hop it crossed (and the requester's cache) is
//    rewritten to the object's resting place — path compression,
//    piggybacked on the eventual reply.
//
// Determinism: lookups never draw random numbers; every message goes
// through Runtime::transfer (and therefore through the reliable transport
// when one is installed), so fault-injected runs retain exact app-level
// results. Cycle charges decompose into the existing Table-5 categories —
// installing the locator adds no new breakdown keys, only new volume.
//
// With `mode == Locality::kOracle` (the default) the Locator is inert: it
// never installs itself on the Runtime, and every figure in the paper
// reproduction is bit-identical to a build without it.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/location.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "sim/async_mutex.h"
#include "sim/types.h"

namespace cm::core {
class AdaptiveChooser;
}

namespace cm::loc {

using core::ObjectId;
using sim::ProcId;

enum class Locality {
  kOracle,       // ObjectSpace answers directly; locator never attaches
  kDistributed,  // directory shards + caches + forwarding chains
};

enum class DirectoryPolicy {
  kHashHome,   // shard = id % nprocs: spreads directory load evenly
  kOwnerHome,  // shard = creation home: queries about an unmoved object
               // land where the object is (zero extra hop), but a hot
               // creator processor serves every query for its objects
};

struct LocatorConfig {
  Locality mode = Locality::kOracle;
  DirectoryPolicy directory = DirectoryPolicy::kHashHome;
  unsigned cache_capacity = 64;  // per-processor LRU entries; 0 = no cache
};

struct LocStats {
  std::uint64_t local_hits = 0;    // object already at the asker: free
  std::uint64_t lookups = 0;       // remote resolutions (object elsewhere)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t stale_self_hints = 0;  // cached hint pointed at the asker
  std::uint64_t dir_queries = 0;   // shard consultations (incl. co-resident)
  std::uint64_t dir_local = 0;     // ... of which needed no messages
  std::uint64_t deliveries = 0;    // remote payloads that went looking
  std::uint64_t forwarded = 0;     // ... of which bounced at least once
  std::uint64_t bounces = 0;       // total forwarding hops taken
  std::uint64_t max_chain = 0;     // longest chain one request traversed
  std::uint64_t compressions = 0;  // chains collapsed after resolution
  std::uint64_t fwd_fallbacks = 0; // missing pointer -> directory re-query
  std::uint64_t moves = 0;         // completed home-serialised moves
  std::uint64_t move_races = 0;    // movers that lost: object arrived first
  std::uint64_t dir_failovers = 0; // queries re-routed to a replica shard
  std::uint64_t chain_cuts = 0;    // forwarding pointers through dead hosts cut
  std::uint64_t move_aborts = 0;   // moves abandoned because a party died

  [[nodiscard]] double hit_rate() const {
    const auto n = cache_hits + cache_misses;
    return n == 0 ? 0.0 : static_cast<double>(cache_hits) / n;
  }
  /// Mean forwarding-chain length over all remote deliveries (most are 0).
  [[nodiscard]] double mean_chain() const {
    return deliveries == 0 ? 0.0
                           : static_cast<double>(bounces) / deliveries;
  }
};

/// Bounded LRU map of ObjectId -> ProcId hints. Pure host-side state: a
/// probe models the local table walk; the caller charges the cycles.
class TranslationCache {
 public:
  explicit TranslationCache(unsigned capacity) : capacity_(capacity) {}

  /// Look up a hint, refreshing its recency on hit.
  [[nodiscard]] std::optional<ProcId> get(ObjectId id);

  /// Look up without touching recency (introspection only).
  [[nodiscard]] std::optional<ProcId> peek(ObjectId id) const;

  /// Insert/update a hint; returns true if an older entry was evicted.
  bool put(ObjectId id, ProcId where);

  void erase(ObjectId id);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] unsigned capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<ObjectId, ProcId>;
  unsigned capacity_;
  std::list<Entry> order_;  // most recently used first
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_;
};

class Locator final : public core::LocationService {
 public:
  /// Construct over a runtime. In distributed mode this registers every
  /// already-created object in the directory, hooks ObjectSpace::create so
  /// later allocations (e.g. B-tree split nodes) get entries too, and
  /// installs itself as the runtime's location service. In oracle mode the
  /// constructor does nothing — the runtime keeps its oracle paths.
  Locator(core::Runtime& rt, LocatorConfig cfg);
  ~Locator() override;

  Locator(const Locator&) = delete;
  Locator& operator=(const Locator&) = delete;

  [[nodiscard]] bool attached() const noexcept { return attached_; }
  [[nodiscard]] const LocatorConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const LocStats& stats() const noexcept { return stats_; }

  /// Optional: forward bounce observations to the adaptive chooser, so it
  /// learns that an object ping-pongs and stops recommending migration.
  void set_chooser(core::AdaptiveChooser* chooser) noexcept {
    chooser_ = chooser;
  }

  /// Directory shard serving `id` under the configured policy.
  [[nodiscard]] ProcId shard_of(ObjectId id) const;

  /// Install a failure detector. With one installed, queries whose primary
  /// shard is suspected re-route to the first live replica
  /// `(shard + r) % nprocs` (r = 1..kDirReplicas-1, locator.cc), forwarding
  /// chains passing through dead hosts are cut and re-resolved, and moves
  /// involving a dead party abort instead of hanging. Passing nullptr (the
  /// default state) keeps every path bit-identical to a build without
  /// fault tolerance.
  void set_fault_tolerance(core::FaultTolerance* ft) noexcept { ft_ = ft; }

  /// Crash recovery committed `id`'s re-home from `from` (the dead host) to
  /// `to`. Flips the directory entry and scrubs metadata that names the dead
  /// host: its own forwarding pointer, every pointer and cache hint aimed at
  /// it. Host-global mutation, mirroring a recovery broadcast whose cycle
  /// costs ft::FtLayer charges.
  void on_rehome(ObjectId id, ProcId from, ProcId to);

  // ---- LocationService ----
  [[nodiscard]] sim::Task<ProcId> resolve(core::Ctx& ctx,
                                          ObjectId obj) override;
  /// Without a failure detector, a chase that finds no forwarding pointer
  /// where the directory names the object throws std::logic_error to its
  /// awaiter: only something that moved the object behind the locator's
  /// back leaves it so.
  [[nodiscard]] sim::Task<ProcId> forward(ObjectId obj, ProcId at,
                                          unsigned words,
                                          ProcId requester) override;
  [[nodiscard]] sim::Task<bool> move_object(core::Ctx& ctx, ObjectId obj,
                                            unsigned size_words) override;

  // ---- introspection for tests ----
  [[nodiscard]] std::optional<ProcId> cached_hint(ProcId p, ObjectId id) const;
  [[nodiscard]] std::optional<ProcId> forwarding_pointer(ProcId p,
                                                         ObjectId id) const;
  [[nodiscard]] ProcId directory_owner(ObjectId id) const;

 private:
  friend class LocatorTestPeer;  // feeds on_create ids ObjectSpace never makes

  struct DirEntry {
    ProcId shard;            // which processor serves this entry
    ProcId owner;            // last committed owner
    sim::AsyncMutex movers;  // serialises the move protocol per object
  };
  struct ProcState {
    explicit ProcState(unsigned cache_capacity) : cache(cache_capacity) {}
    TranslationCache cache;
    std::unordered_map<ObjectId, ProcId> fwd;  // forwarding pointers
  };

  /// Throws std::logic_error for an id other than the directory's size:
  /// ObjectSpace ids are dense and sequential.
  void on_create(ObjectId id, ProcId home);
  void cache_put(ProcId p, ObjectId id, ProcId where);
  void trace(sim::TraceEvent ev, ProcId track,
             std::initializer_list<sim::TraceArg> args);
  /// Ground truth — used only where a real machine has local knowledge
  /// (is the object *here*? does the forwarding check at a host fail?).
  [[nodiscard]] ProcId owner_truth(ObjectId id) const;

  /// Consult `id`'s directory shard from `p`: free table walk when the
  /// shard is co-resident, a request/reply message pair otherwise. Updates
  /// `p`'s translation cache with the answer.
  [[nodiscard]] sim::Task<ProcId> dir_query(ProcId p, ObjectId id);

  /// Shard to consult for `id` right now: the primary unless a failure
  /// detector says it is dead, in which case the first live replica in
  /// `(shard + r) % nprocs` order (falling back to the primary if every
  /// replica is suspected — the query then fails like any send to a dead
  /// host). Counts a failover and traces when it re-routes.
  [[nodiscard]] ProcId live_shard(ObjectId id);

  /// Record per-category breakdown entries and return their cycle sum, for
  /// one atomic machine.compute() charge. (Not a coroutine: initializer
  /// lists cannot live in a coroutine frame.)
  sim::Cycles add_parts(
      std::initializer_list<std::pair<core::Category, sim::Cycles>> parts);
  /// Sender-side stub for a locator control message (mirrors send_path).
  [[nodiscard]] sim::Task<> send_ctl(ProcId at, unsigned words);
  /// Receiver-side handling of a locator control message at a shard/host.
  [[nodiscard]] sim::Task<> recv_ctl(ProcId at, unsigned words);
  /// Reply delivery back to the asker (mirrors receive_reply + linkage).
  [[nodiscard]] sim::Task<> recv_reply(ProcId at, unsigned words);

  core::Runtime* rt_;
  LocatorConfig cfg_;
  bool attached_ = false;
  ProcId nprocs_ = 0;
  std::deque<DirEntry> dir_;  // indexed by ObjectId (ids are dense);
                              // deque: AsyncMutex is not movable
  std::vector<ProcState> procs_;
  LocStats stats_;
  core::AdaptiveChooser* chooser_ = nullptr;
  core::FaultTolerance* ft_ = nullptr;
};

/// Metrics schema helper: exports LocStats under "loc." keys.
void put_loc_stats(core::Metrics& m, const LocStats& s);

}  // namespace cm::loc
