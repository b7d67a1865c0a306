#include "loc/locator.h"

#include <stdexcept>
#include <string>

#include "check/checker.h"
#include "core/adaptive.h"

namespace cm::loc {

using core::Category;
using core::CostModel;
using sim::Cycles;
using sim::TraceEvent;

constexpr unsigned kLookupWords = 1;   // directory query payload
constexpr unsigned kReplyWords = 1;    // directory reply payload
constexpr unsigned kControlWords = 1;  // move-protocol control payload
constexpr unsigned kDirReplicas = 2;   // shard replication degree under ft

// ---------------------------------------------------------------------------
// TranslationCache

std::optional<ProcId> TranslationCache::get(ObjectId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  order_.splice(order_.begin(), order_, it->second);
  return it->second->second;
}

std::optional<ProcId> TranslationCache::peek(ObjectId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second->second;
}

bool TranslationCache::put(ObjectId id, ProcId where) {
  if (capacity_ == 0) return false;  // caching disabled
  if (const auto it = index_.find(id); it != index_.end()) {
    it->second->second = where;
    order_.splice(order_.begin(), order_, it->second);
    return false;
  }
  bool evicted = false;
  if (index_.size() >= capacity_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    evicted = true;
  }
  order_.emplace_front(id, where);
  index_[id] = order_.begin();
  return evicted;
}

void TranslationCache::erase(ObjectId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

// ---------------------------------------------------------------------------
// Locator: construction / registration

Locator::Locator(core::Runtime& rt, LocatorConfig cfg)
    : rt_(&rt), cfg_(cfg), nprocs_(rt.machine().size()) {
  if (cfg_.mode != Locality::kDistributed) return;  // inert in oracle mode
  procs_.reserve(nprocs_);
  for (ProcId p = 0; p < nprocs_; ++p) {
    procs_.emplace_back(cfg_.cache_capacity);
  }
  core::ObjectSpace& os = rt_->objects();
  for (std::size_t id = 0; id < os.size(); ++id) {
    const auto oid = static_cast<ObjectId>(id);
    on_create(oid, os.home_of(oid));
  }
  os.set_create_hook(
      [this](ObjectId id, ProcId home) { on_create(id, home); });
  rt_->set_locator(this);
  attached_ = true;
}

Locator::~Locator() {
  if (!attached_) return;
  rt_->objects().set_create_hook(nullptr);
  if (rt_->locator() == this) rt_->set_locator(nullptr);
}

void Locator::on_create(ObjectId id, ProcId home) {
  // ObjectSpace ids are dense and sequential; the directory mirrors that.
  if (id != dir_.size()) {
    throw std::logic_error("Locator::on_create: non-sequential object id " +
                           std::to_string(id) + " (directory size " +
                           std::to_string(dir_.size()) + ")");
  }
  dir_.emplace_back();
  DirEntry& e = dir_.back();
  e.owner = home;
  e.shard = cfg_.directory == DirectoryPolicy::kHashHome
                ? static_cast<ProcId>(id % nprocs_)
                : home;
}

ProcId Locator::shard_of(ObjectId id) const { return dir_[id].shard; }

ProcId Locator::directory_owner(ObjectId id) const { return dir_[id].owner; }

std::optional<ProcId> Locator::cached_hint(ProcId p, ObjectId id) const {
  return procs_[p].cache.peek(id);
}

std::optional<ProcId> Locator::forwarding_pointer(ProcId p,
                                                  ObjectId id) const {
  const auto& fw = procs_[p].fwd;
  const auto it = fw.find(id);
  if (it == fw.end()) return std::nullopt;
  return it->second;
}

ProcId Locator::owner_truth(ObjectId id) const {
  return rt_->objects().home_of(id);
}

void Locator::cache_put(ProcId p, ObjectId id, ProcId where) {
  // Never cache a hint naming the holder itself: local objects are found
  // through the local table, and such an entry would only go stale.
  // Nor one naming a suspected processor: crash recovery scrubs those, and
  // a directory answer read before the re-home but delivered after it
  // would otherwise route every later call into the dead NIC.
  if (where == p || (ft_ != nullptr && ft_->suspected(where))) {
    procs_[p].cache.erase(id);
    return;
  }
  if (procs_[p].cache.put(id, where)) ++stats_.cache_evictions;
}

void Locator::trace(TraceEvent ev, ProcId track,
                    std::initializer_list<sim::TraceArg> args) {
  if (sim::Tracer* tr = rt_->tracer()) tr->record(ev, track, args);
}

// ---------------------------------------------------------------------------
// Cycle accounting. All charges decompose into existing Table-5 categories
// (no new breakdown keys), and each helper runs as one atomic CPU charge,
// matching the runtime's handler-granularity FCFS convention.

sim::Cycles Locator::add_parts(
    std::initializer_list<std::pair<Category, Cycles>> parts) {
  core::Breakdown& bd = rt_->mutable_stats().breakdown;
  Cycles total = 0;
  for (const auto& [cat, cycles] : parts) {
    bd.add(cat, cycles);
    total += cycles;
  }
  return total;
}

sim::Task<> Locator::send_ctl(ProcId at, unsigned words) {
  const CostModel& c = rt_->cost();
  const Cycles total =
      add_parts({{Category::kSendLinkage, c.send_linkage},
                 {Category::kMarshal, c.marshal(words)},
                 {Category::kSendAllocPacket, c.alloc_packet_send()},
                 {Category::kMessageSend, c.message_send}});
  co_await rt_->machine().compute(at, total);
}

sim::Task<> Locator::recv_ctl(ProcId at, unsigned words) {
  // A locator control message is handled like a short method: full software
  // reception, no thread creation.
  const CostModel& c = rt_->cost();
  const Cycles total =
      add_parts({{Category::kCopyPacket, c.copy(words)},
                 {Category::kRecvAllocPacket, c.alloc_packet_recv()},
                 {Category::kForwardingCheck, c.forwarding_check},
                 {Category::kUnmarshal, c.unmarshal(words)},
                 {Category::kOidTranslation, c.oid()},
                 {Category::kScheduler, c.scheduler},
                 {Category::kRecvLinkage, c.recv_linkage}});
  co_await rt_->machine().compute(at, total);
}

sim::Task<> Locator::recv_reply(ProcId at, unsigned words) {
  // Reply delivery to the waiting thread; the parts sum to reply_receive().
  const CostModel& c = rt_->cost();
  const Cycles total =
      add_parts({{Category::kCopyPacket, c.copy(words)},
                 {Category::kRecvAllocPacket, c.alloc_packet_recv()},
                 {Category::kUnmarshal, c.unmarshal(words)},
                 {Category::kScheduler, c.scheduler},
                 {Category::kRecvLinkage, c.recv_linkage}});
  co_await rt_->machine().compute(at, total);
}

// ---------------------------------------------------------------------------
// Resolution

sim::Task<ProcId> Locator::resolve(core::Ctx& ctx, ObjectId id) {
  const ProcId p = ctx.proc;
  // Local check: on a real node this is the local-table branch of the
  // locality check the runtime already charged — free here.
  if (owner_truth(id) == p) {
    ++stats_.local_hits;
    co_return p;
  }
  ++stats_.lookups;
  trace(TraceEvent::kLocLookup, p, {{"obj", id}});
  const CostModel& c = rt_->cost();
  // Probe the software translation cache: Table 5's 36-cycle GOID
  // translation walk, free with J-Machine-style hardware translation.
  const Cycles probe_cost =
      add_parts({{Category::kOidTranslation, c.oid()}});
  co_await rt_->machine().compute(p, probe_cost);
  ProcState& ps = procs_[p];
  if (const auto hint = ps.cache.get(id)) {
    if (*hint != p) {
      ++stats_.cache_hits;
      trace(TraceEvent::kLocHit, p, {{"obj", id}, {"hint", *hint}});
      co_return *hint;
    }
    // A hint naming ourselves is self-evidently stale: the local table
    // just said the object is not here. Drop it and miss.
    ps.cache.erase(id);
    ++stats_.stale_self_hints;
  }
  ++stats_.cache_misses;
  trace(TraceEvent::kLocMiss, p, {{"obj", id}});
  ProcId target = co_await dir_query(p, id);
  if (target == p) {
    // The directory still names us (a move's commit is in flight), but the
    // object is gone — we hosted it once, so our own forwarding pointer is
    // fresher than the directory.
    const auto it = ps.fwd.find(id);
    if (it != ps.fwd.end()) target = it->second;
  }
  co_return target;
}

ProcId Locator::live_shard(ObjectId id) {
  const ProcId shard = dir_[id].shard;
  if (ft_ == nullptr || !ft_->suspected(shard)) return shard;
  for (unsigned r = 1; r < kDirReplicas; ++r) {
    const auto rep = static_cast<ProcId>((shard + r) % nprocs_);
    if (!ft_->suspected(rep)) {
      ++stats_.dir_failovers;
      trace(TraceEvent::kFtFailover, rep, {{"obj", id}, {"dead", shard}});
      return rep;
    }
  }
  // Every replica is suspected; answer with the primary and let the query
  // fail like any other send to a dead host.
  return shard;
}

sim::Task<ProcId> Locator::dir_query(ProcId p, ObjectId id) {
  ++stats_.dir_queries;
  DirEntry& e = dir_[id];
  const ProcId shard = live_shard(id);
  const CostModel& c = rt_->cost();
  if (shard == p) {
    // The shard is co-resident: an ordinary local table walk.
    ++stats_.dir_local;
    const Cycles walk_cost =
        add_parts({{Category::kOidTranslation, c.oid()}});
    co_await rt_->machine().compute(p, walk_cost);
    const ProcId owner = e.owner;
    cache_put(p, id, owner);
    co_return owner;
  }
  co_await send_ctl(p, kLookupWords);
  co_await rt_->transfer(p, shard, kLookupWords);
  co_await recv_ctl(shard, kLookupWords);
  const ProcId owner = e.owner;  // read at the shard, at shard time
  co_await send_ctl(shard, kReplyWords);
  co_await rt_->transfer(shard, p, kReplyWords);
  co_await recv_reply(p, kReplyWords);
  cache_put(p, id, owner);
  co_return owner;
}

sim::Task<ProcId> Locator::forward(ObjectId id, ProcId at, unsigned words,
                                   ProcId requester) {
  ++stats_.deliveries;
  if (ft_ != nullptr && !ft_->object_lost(id) &&
      ft_->suspected(owner_truth(id))) {
    // The payload is chasing an object whose host just died. Park until
    // crash recovery re-homes (or condemns) it, then chase the fresh
    // location; the chase below never launches into a dead NIC.
    co_await ft_->await_object(id);
  }
  if (owner_truth(id) == at) co_return at;  // hint was good
  const CostModel& c = rt_->cost();
  check::Checker* ck = rt_->checker();
  std::uint64_t chase = 0;
  if (ck != nullptr) chase = ck->on_chase_begin(id, at);
  std::vector<ProcId> hops;
  ProcId cur = at;
  // Chase the chain. Each pointer was written strictly later than the one
  // before it (a host only writes its pointer when the object departs), and
  // a bounce hop is far cheaper than a full object move, so the chase
  // always catches up with the object — see DESIGN.md §9 for the bound.
  while (owner_truth(id) != cur) {
    if (ft_ != nullptr && ft_->object_lost(id)) {
      // Recovery condemned the object mid-chase. Surface the stop to the
      // caller (Runtime::call re-checks object_lost after forward() and
      // throws ObjectLostError); the chase just stops burning cycles.
      co_return cur;
    }
    ProcId next = sim::kNoProc;
    auto& fw = procs_[cur].fwd;
    if (const auto it = fw.find(id); it != fw.end()) next = it->second;
    if (next != sim::kNoProc && ft_ != nullptr && ft_->suspected(next)) {
      // The pointer leads into a dead host: cut the chain here, wait out
      // any in-flight recovery, and re-resolve through the directory.
      ++stats_.chain_cuts;
      trace(TraceEvent::kFtChainCut, cur, {{"obj", id}, {"dead", next}});
      fw.erase(id);
      if (ck != nullptr) ck->on_fwd_erase(cur, id);
      co_await ft_->await_object(id);
      next = sim::kNoProc;
    }
    if (next == sim::kNoProc) {
      // No pointer here. By protocol invariants every hint names a host
      // that once held the object (and therefore left a pointer when it
      // departed), so without crashes this is defensive: re-consult the
      // directory.
      ++stats_.fwd_fallbacks;
      next = co_await dir_query(cur, id);
      if (next == cur) {
        if (ft_ != nullptr) {
          // A recovery commit can land the object right here between the
          // loop check and the directory answer; re-test the loop
          // condition instead of declaring the object lost.
          continue;
        }
        // Without ft nothing loses an object, so the protocol's
        // bookkeeping is broken: not a lost op for the requester to skip.
        throw std::logic_error(
            "Locator::forward: object " + std::to_string(id) +
            " lost (no forwarding pointer at proc " + std::to_string(cur) +
            " and directory names it)");
      }
    }
    if (ft_ != nullptr && ft_->suspected(next)) {
      // The directory still names the dead owner: its recovery has not
      // committed yet. Wait for the commit rather than launching the
      // payload into a dead NIC.
      co_await ft_->await_object(id);
      continue;
    }
    hops.push_back(cur);
    ++stats_.bounces;
    if (ck != nullptr) ck->on_chase_hop(chase, cur, next);
    trace(TraceEvent::kLocBounce, cur, {{"obj", id}, {"next", next}});
    if (chooser_ != nullptr) chooser_->record_bounce(id);
    // The stale host pulls the packet in, fails the forwarding check,
    // translates the pointer, and relaunches the message — "sorry, moved;
    // here's my hint".
    const Cycles hop_cost =
        add_parts({{Category::kCopyPacket, c.copy(words)},
                   {Category::kForwardingCheck, c.forwarding_check},
                   {Category::kOidTranslation, c.oid()},
                   {Category::kMessageSend, c.message_send}});
    co_await rt_->machine().compute(cur, hop_cost);
    co_await rt_->transfer(cur, next, words);
    cur = next;
  }
  ++stats_.forwarded;
  const auto chain = static_cast<std::uint64_t>(hops.size());
  if (chain > stats_.max_chain) stats_.max_chain = chain;
  // Path compression, piggybacked on the reply that will flow back anyway:
  // every stale hop and the requester learn the object's resting place, so
  // the next request takes at most one bounce from any of them.
  ++stats_.compressions;
  trace(TraceEvent::kLocCompress, cur, {{"obj", id}, {"chain", chain}});
  for (const ProcId h : hops) {
    if (h == cur) continue;
    procs_[h].fwd[id] = cur;
    if (ck != nullptr) ck->on_fwd_pointer(h, id, cur);
    cache_put(h, id, cur);
  }
  cache_put(requester, id, cur);
  if (ck != nullptr) {
    // Synchronous with the compression loop above: every crossed hop must
    // now point straight at the resting place.
    ck->on_chase_end(chase, cur);
  }
  co_return cur;
}

// ---------------------------------------------------------------------------
// Home-serialised object movement. Four control legs instead of the oracle's
// two (the price of decentralisation): MOVE-REQUEST mover->shard, FETCH
// shard->owner, the state owner->mover, COMMIT mover->shard. The shard's
// per-object mutex stands in for the queue of MOVE-REQUESTs a real
// directory entry would serialise; it is only ever locked by code running
// at the shard, so it is a local lock, not an oracle.

sim::Task<bool> Locator::move_object(core::Ctx& ctx, ObjectId id,
                                     unsigned size_words) {
  const ProcId mover = ctx.proc;
  DirEntry& e = dir_[id];
  if (ft_ != nullptr && (ft_->suspected(mover) || ft_->object_lost(id))) {
    // A dead mover cannot receive the object, and a condemned object has
    // nothing to ship. Refuse up front; the caller falls back to RPC.
    ++stats_.move_aborts;
    co_return false;
  }
  // One shard pick for the whole protocol: all four control legs must talk
  // to the same (replica) entry host or the movers queue would split.
  const ProcId shard = live_shard(id);
  const CostModel& c = rt_->cost();

  // MOVE-REQUEST: tell the object's directory shard we want it here.
  if (shard != mover) {
    co_await send_ctl(mover, kControlWords);
    co_await rt_->transfer(mover, shard, kControlWords);
    co_await recv_ctl(shard, kControlWords);
  } else {
    const Cycles req_cost =
        add_parts({{Category::kOidTranslation, c.oid()}});
    co_await rt_->machine().compute(mover, req_cost);
  }

  // Movers of this object queue FIFO at the shard.
  check::Checker* ck = rt_->checker();
  if (ck != nullptr) ck->on_lock_attempt(&ctx, &e.movers, "loc.dir_movers");
  co_await e.movers.lock();
  if (ck != nullptr) ck->on_lock_acquired(&ctx, &e.movers, "loc.dir_movers");
  const ProcId owner = e.owner;
  if (owner == mover) {
    // Post-lock re-check: a racing mover from our processor (or a move we
    // chained behind) already brought the object here while we queued.
    ++stats_.move_races;
    if (ck != nullptr) ck->on_lock_released(&ctx, &e.movers);
    e.movers.unlock();
    if (shard != mover) {
      co_await send_ctl(shard, kReplyWords);
      co_await rt_->transfer(shard, mover, kReplyWords);
      co_await recv_reply(mover, kReplyWords);
    }
    co_return false;
  }
  if (ft_ != nullptr && (ft_->suspected(owner) || ft_->suspected(mover))) {
    // While we queued, the owner died (crash recovery will re-home the
    // object — a FETCH would target a dead NIC) or the mover itself was
    // suspected (nothing left to ship to). Abort along the same legs as a
    // lost race so the cycle accounting stays comparable.
    ++stats_.move_aborts;
    if (ck != nullptr) ck->on_lock_released(&ctx, &e.movers);
    e.movers.unlock();
    if (shard != mover) {
      co_await send_ctl(shard, kReplyWords);
      co_await rt_->transfer(shard, mover, kReplyWords);
      co_await recv_reply(mover, kReplyWords);
    }
    co_return false;
  }

  // FETCH: the shard asks the current owner to ship the object.
  if (ck != nullptr) ck->on_move_begin(id, mover);
  if (shard != owner) {
    co_await send_ctl(shard, kControlWords);
    co_await rt_->transfer(shard, owner, kControlWords);
    co_await recv_ctl(owner, kControlWords);
  } else {
    const Cycles fetch_cost =
        add_parts({{Category::kOidTranslation, c.oid()}});
    co_await rt_->machine().compute(shard, fetch_cost);
  }

  // The owner packs up: unbind from its local table, leave the forwarding
  // address (the Emerald move), marshal the state, ship it.
  procs_[owner].fwd[id] = mover;
  if (ck != nullptr) ck->on_fwd_pointer(owner, id, mover);
  const Cycles pack_cost =
      add_parts({{Category::kObjectMove, c.sender_total(size_words)}});
  co_await rt_->machine().compute(owner, pack_cost);
  co_await rt_->transfer(owner, mover, size_words);

  // Install at the mover: full software reception (a thread runs the
  // installer) plus rebinding the local object table.
  const Cycles install_cost = add_parts(
      {{Category::kObjectMove,
        c.receiver_total(size_words, /*create_thread=*/true) + c.oid()}});
  co_await rt_->machine().compute(mover, install_cost);
  if (ft_ != nullptr &&
      (ft_->suspected(mover) || owner_truth(id) != owner)) {
    // The mover died with the state in flight, or the owner died and crash
    // recovery re-homed the object before we could commit. Either way this
    // move must not land: retract the forwarding pointer we published (if
    // recovery has not already scrubbed it) and release the entry.
    ++stats_.move_aborts;
    auto& ofw = procs_[owner].fwd;
    if (const auto it = ofw.find(id); it != ofw.end() && it->second == mover) {
      ofw.erase(it);
      if (ck != nullptr) ck->on_fwd_erase(owner, id);
    }
    if (ck != nullptr) {
      ck->on_move_end(id);
      ck->on_lock_released(&ctx, &e.movers);
    }
    e.movers.unlock();
    co_return false;
  }
  rt_->objects().move(id, mover);
  if (ck != nullptr) ck->on_move_commit(id, owner, mover);
  procs_[mover].fwd.erase(id);  // it lives here now; no pointer needed
  if (ck != nullptr) ck->on_fwd_erase(mover, id);
  procs_[mover].cache.erase(id);

  // COMMIT: tell the shard where the object landed; the entry flips and
  // the next queued mover (if any) proceeds against the new owner.
  if (shard != mover) {
    co_await send_ctl(mover, kControlWords);
    co_await rt_->transfer(mover, shard, kControlWords);
    co_await recv_ctl(shard, kControlWords);
  } else {
    const Cycles commit_cost =
        add_parts({{Category::kOidTranslation, c.oid()}});
    co_await rt_->machine().compute(mover, commit_cost);
  }
  e.owner = mover;
  if (ck != nullptr) {
    // The serialisation window closes with the directory entry flip; the
    // release hook precedes unlock() because unlock resumes the next queued
    // mover synchronously.
    ck->on_move_end(id);
    ck->on_lock_released(&ctx, &e.movers);
  }
  e.movers.unlock();
  ++stats_.moves;
  co_return true;
}

// ---------------------------------------------------------------------------
// Crash recovery commit. Host-global metadata surgery: the directory entry
// flips to the refuge host and every pointer or hint that would route a
// request into the dead processor is scrubbed. ft::FtLayer charges the
// recovery broadcast's cycles; this hook applies its effect.

void Locator::on_rehome(ObjectId id, ProcId from, ProcId to) {
  if (!attached_) return;
  check::Checker* ck = rt_->checker();
  dir_[id].owner = to;
  // The object lives at `to` now: a forwarding pointer there would shadow
  // the local table (mirrors the erase in move_object's install step).
  auto& tfw = procs_[to].fwd;
  if (const auto it = tfw.find(id); it != tfw.end()) {
    tfw.erase(it);
    if (ck != nullptr) ck->on_fwd_erase(to, id);
  }
  procs_[to].cache.erase(id);
  for (ProcId p = 0; p < nprocs_; ++p) {
    auto& fw = procs_[p].fwd;
    const auto it = fw.find(id);
    if (it != fw.end() &&
        (p == from || (ft_ != nullptr && ft_->suspected(it->second)))) {
      // Pointers held BY the dead host or pointing INTO a dead host are
      // both dead ends for this object; cut them all in one sweep.
      fw.erase(it);
      if (ck != nullptr) ck->on_fwd_erase(p, id);
    }
    if (const auto hint = procs_[p].cache.peek(id);
        hint.has_value() && ft_ != nullptr && ft_->suspected(*hint)) {
      procs_[p].cache.erase(id);
    }
  }
}

// ---------------------------------------------------------------------------

void put_loc_stats(core::Metrics& m, const LocStats& s) {
  m.put("loc.local_hits", s.local_hits);
  m.put("loc.lookups", s.lookups);
  m.put("loc.cache_hits", s.cache_hits);
  m.put("loc.cache_misses", s.cache_misses);
  m.put("loc.cache_evictions", s.cache_evictions);
  m.put("loc.hit_rate", s.hit_rate());
  m.put("loc.stale_self_hints", s.stale_self_hints);
  m.put("loc.dir_queries", s.dir_queries);
  m.put("loc.dir_local", s.dir_local);
  m.put("loc.deliveries", s.deliveries);
  m.put("loc.forwarded", s.forwarded);
  m.put("loc.bounces", s.bounces);
  m.put("loc.mean_chain", s.mean_chain());
  m.put("loc.max_chain", s.max_chain);
  m.put("loc.compressions", s.compressions);
  m.put("loc.fwd_fallbacks", s.fwd_fallbacks);
  m.put("loc.moves", s.moves);
  m.put("loc.move_races", s.move_races);
  m.put("loc.dir_failovers", s.dir_failovers);
  m.put("loc.chain_cuts", s.chain_cuts);
  m.put("loc.move_aborts", s.move_aborts);
}

}  // namespace cm::loc
