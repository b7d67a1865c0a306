#include "shmem/coherent_memory.h"

#include <stdexcept>
#include <utility>

#include "check/checker.h"

namespace cm::shmem {

// Per protocol message handled (directory lookup + state update).
constexpr sim::Cycles kControllerOccupancy = 12;
constexpr unsigned kWordsRequest = 2;  // REQ_R / REQ_W / INV / ACK / FETCH
constexpr unsigned kWordsData = 2 + kLineBytes / 4;  // header + 16-byte line

CoherentMemory::CoherentMemory(sim::Machine& machine, net::Network& network,
                               CacheParams cache_params, ProtocolParams params)
    : machine_(&machine),
      network_(&network),
      params_(params),
      heap_(machine.size()),
      caches_(machine.size(), Cache(cache_params)),
      controllers_(machine.size()),
      sharer_words_((machine.size() + 63) / 64),
      dir_stride_(sizeof(Dir) + sharer_words_ * sizeof(std::uint64_t)),
      dirs_(machine.size()),
      in_flight_(machine.size(), nullptr) {
  if (machine.size() > kMaxProcs) {
    throw std::invalid_argument(
        "CoherentMemory: more processors than the directory's kMaxProcs");
  }
}

Addr CoherentMemory::alloc(sim::ProcId home, std::uint64_t bytes) {
  const Addr a = heap_.alloc(home, bytes);
  // The home's chunk table covers its allocated lines; a chunk itself is
  // made by the first transaction on one of its lines (record()).
  const std::uint64_t lines = heap_.used(home) >> kLineShift;
  dirs_[home].resize((lines + kDirChunk - 1) / kDirChunk);
  return a;
}

void CoherentMemory::make_chunk(std::unique_ptr<std::byte[]>& chunk) {
  // Zero bytes (empty sharer bitmaps) with a fresh Dir at the head of each
  // record.
  chunk = std::make_unique<std::byte[]>(kDirChunk * dir_stride_);
  for (std::uint64_t r = 0; r < kDirChunk; ++r) {
    new (chunk.get() + r * dir_stride_) Dir{};
  }
  ++dir_chunks_;
}

bool CoherentMemory::allocated(Line line) const {
  const sim::ProcId home = home_of_line(line);
  return home < dirs_.size() &&
         line_offset(line) < heap_.used(home) >> kLineShift;
}

void CoherentMemory::require_allocated(Line line) const {
  if (!allocated(line)) {
    throw std::out_of_range("CoherentMemory: access to unallocated memory");
  }
}

Cache& CoherentMemory::cache_of(sim::ProcId p) {
  if (p >= caches_.size()) {
    throw std::out_of_range("CoherentMemory: processor outside the machine");
  }
  return caches_[p];
}

void CoherentMemory::check_line(Line line, const Dir& d, Sharers s) const {
  // The invariant "Modified implies a valid owner that is the sole sharer;
  // clean implies no owner", at a transition's commit point.
  check::Checker* ck = machine_->engine().checker();
  if (ck == nullptr) return;
  const bool owner_valid = d.owner != sim::kNoProc;
  ck->on_line_state(line, d.modified, s.count(), owner_valid,
                    owner_valid && s.test(d.owner));
}

void CoherentMemory::occupy(sim::ProcId p, sim::Wake w) {
  sim::Engine& engine = machine_->engine();
  const sim::Cycles done =
      controllers_.acquire(p, engine.now(), kControllerOccupancy);
  engine.resume_at_on(engine.current_home(), done, w);
}

void CoherentMemory::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                          sim::Wake w) {
  // Coherence traffic models the lossless hardware fabric: FaultyNetwork
  // never faults Traffic::kCoherence (pinned by
  // FaultyNetwork.CoherenceTrafficUntouchedByDefault), so no copy of this
  // message is ever lost, repeated or held back.
  // simlint: allow SS002
  network_->send(src, dst, words, net::Traffic::kCoherence, w);
}

void CoherentMemory::trap(sim::ProcId home, sim::Wake w) {
  ++stats_.limitless_traps;
  machine_->compute(home, ProtocolParams::limitless_trap).then(w);
}

bool CoherentMemory::Access::await_ready() {
  Cache& c = mem_->cache_of(p_);
  for (;; ++line_) {
    if (!mem_->hit(c, line_, exclusive_)) return false;
    if (line_ == last_) return true;
  }
}

CoherentMemory::Txn* CoherentMemory::in_flight(sim::ProcId p,
                                               Line line) const {
  // Caches block, so the list holds one entry unless prefetches add more.
  for (Txn* t = in_flight_[p]; t != nullptr; t = t->next_in_flight) {
    if (t->line == line) return t;
  }
  return nullptr;
}

void CoherentMemory::miss(sim::ProcId p, Line line, Line last, bool exclusive,
                          std::coroutine_handle<> waiter) {
  // `line` is absent from p's cache, or Shared for a write.
  require_allocated(line);
  Txn& t = txns_.take();
  t.mem = this;
  t.line = line;
  t.last = last;
  t.requester = p;
  t.exclusive = exclusive;
  t.waiter = waiter;
  issue(t);
}

void CoherentMemory::issue(Txn& t) {
  if (t.exclusive) {
    ++stats_.write_misses;
    if (caches_[t.requester].lookup(t.line) == LineState::kShared) {
      ++stats_.upgrades;
    }
  } else {
    ++stats_.read_misses;
  }
  look(t);
}

void CoherentMemory::look(Txn& t) {
  const sim::ProcId p = t.requester;
  if (Txn* ongoing = in_flight(p, t.line)) {
    // Wait for it, then look again (`recheck`).
    ++stats_.mshr_merges;
    t.next = nullptr;
    if (ongoing->merged_tail != nullptr) {
      ongoing->merged_tail->next = &t;
    } else {
      ongoing->merged_head = &t;
    }
    ongoing->merged_tail = &t;
    return;
  }
  t.next_in_flight = in_flight_[p];
  in_flight_[p] = &t;
  next<&CoherentMemory::arrive>(t);
  send(p, home_of_line(t.line), kWordsRequest, &t);
}

void CoherentMemory::recheck(Txn& t) {
  if (caches_[t.requester].hit(t.line, t.exclusive)) return walk(t);
  look(t);
}

void CoherentMemory::arrive(Txn& t) {
  Dir& d = record(t.line);
  t.record = &d;
  t.next = nullptr;
  if (d.tail != nullptr) {
    d.tail->next = &t;
    d.tail = &t;
    return;
  }
  d.head = d.tail = &t;
  queued(t);
}

void CoherentMemory::queued(Txn& t) {
  next<&CoherentMemory::request>(t);
  occupy(home_of_line(t.line), &t);  // the home handles the request message
}

void CoherentMemory::request(Txn& t) {
  const sim::ProcId home = home_of_line(t.line);
  Dir& d = *t.record;
  if (d.modified && d.owner != t.requester) {
    // Fetch from the dirty owner; the data returns home first.
    ++stats_.fetches;
    t.owner = d.owner;
    next<&CoherentMemory::fetch>(t);
    return send(home, t.owner, kWordsRequest, &t);
  }
  if (!t.exclusive) {
    if (d.modified) {
      // Owner re-reading its own dirty line should have been a hit, but a
      // race with eviction can surface here; treat as a plain grant.
      d.modified = false;
      d.owner = sim::kNoProc;
    }
    return share(t);
  }
  if (!d.modified) {
    // Invalidate every other sharer and gather acks.
    const Sharers sharers = sharers_of(d);
    const unsigned count = sharers.count();
    t.pending = static_cast<int>(count) - (sharers.test(t.requester) ? 1 : 0);
    if (t.pending > 0) {
      // Invalidating an overflowed sharer set walks the software directory
      // extension.
      if (!overflows(count)) return invalidate(t);
      next<&CoherentMemory::invalidate>(t);
      return trap(home, &t);
    }
  }
  grant_write(t);
}

void CoherentMemory::fetch(Txn& t) {
  next<&CoherentMemory::fetched>(t);
  occupy(t.owner, &t);
}

void CoherentMemory::fetched(Txn& t) {
  // A write invalidates the owner's copy; a read downgrades it M->S.
  caches_[t.owner].set_state(
      t.line, t.exclusive ? LineState::kInvalid : LineState::kShared);
  next<&CoherentMemory::data_home>(t);
  send(t.owner, home_of_line(t.line), kWordsData, &t);
}

void CoherentMemory::data_home(Txn& t) {
  next<&CoherentMemory::data_in>(t);
  occupy(home_of_line(t.line), &t);
}

void CoherentMemory::data_in(Txn& t) {
  if (t.exclusive) return grant_write(t);
  Dir& d = *t.record;
  d.modified = false;
  d.owner = sim::kNoProc;
  const Sharers sharers = sharers_of(d);
  sharers.clear();
  sharers.set(t.owner);
  share(t);
}

void CoherentMemory::invalidate(Txn& t) {
  stats_.invalidations += static_cast<std::uint64_t>(t.pending);
  // Sharers in ascending order, each leg's INV sent at once; the last ack
  // steps `t` on (`acked`).
  const Sharers sharers = sharers_of(*t.record);
  for (unsigned i = 0; i < sharers.n; ++i) {
    for (std::uint64_t bits = sharers.words[i]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<sim::ProcId>(64 * i + std::countr_zero(bits));
      if (s != t.requester) start_invalidation(t, s);
    }
  }
}

void CoherentMemory::acked(Txn& t) {
  next<&CoherentMemory::grant_write>(t);
  occupy(home_of_line(t.line), &t);  // process the final ack
}

void CoherentMemory::grant_write(Txn& t) {
  Dir& d = *t.record;
  const Sharers sharers = sharers_of(d);
  // Full line unless the requester held a Shared copy (upgrade).
  const bool upgrade = sharers.test(t.requester) && !d.modified;
  d.modified = true;
  d.owner = t.requester;
  sharers.clear();
  sharers.set(t.requester);
  check_line(t.line, d, sharers);
  next<&CoherentMemory::granted>(t);
  send(home_of_line(t.line), t.requester,
       upgrade ? kWordsRequest : kWordsData, &t);
}

void CoherentMemory::share(Txn& t) {
  Dir& d = *t.record;
  const Sharers sharers = sharers_of(d);
  sharers.set(t.requester);
  check_line(t.line, d, sharers);
  // Adding a sharer beyond the hardware pointer set traps to software.
  if (!overflows(sharers.count())) return grant_read(t);
  next<&CoherentMemory::grant_read>(t);
  trap(home_of_line(t.line), &t);
}

void CoherentMemory::grant_read(Txn& t) {
  next<&CoherentMemory::granted>(t);
  send(home_of_line(t.line), t.requester, kWordsData, &t);
}

void CoherentMemory::granted(Txn& t) {
  // Leave the FIFO first: `fill` may hand `t` on to the range's next miss
  // or back to the pool.
  Dir& d = *t.record;
  Txn* const after = t.next;
  d.head = after;
  if (after == nullptr) d.tail = nullptr;
  fill(t);
  if (after != nullptr) queued(*after);  // serve the next in line
}

void CoherentMemory::fill(Txn& t) {
  const sim::ProcId p = t.requester;
  if (const auto victim = caches_[p].fill(t.line, t.exclusive)) {
    ++stats_.evictions;
    if (victim->dirty) start_writeback(p, victim->line);  // clean ones drop
  }
  // Retire the MSHR entry, then wake every record merged into it, in
  // order. A woken record may finish or merge anew, so read its successor
  // first.
  Txn** link = &in_flight_[p];
  while (*link != &t) link = &(*link)->next_in_flight;
  *link = t.next_in_flight;
  Txn* merged = std::exchange(t.merged_head, nullptr);
  t.merged_tail = nullptr;
  while (merged != nullptr) {
    Txn* const after = merged->next;
    recheck(*merged);
    merged = after;
  }
  walk(t);
}

void CoherentMemory::walk(Txn& t) {
  // On to the next miss, if the range has one.
  Cache& c = caches_[t.requester];
  do {
    if (t.line == t.last) return finish(t);
    ++t.line;
  } while (hit(c, t.line, t.exclusive));
  try {
    require_allocated(t.line);
  } catch (...) {
    parked_ = std::current_exception();  // for the awaiter to rethrow
    return finish(t);
  }
  issue(t);
}

void CoherentMemory::finish(Txn& t) {
  const std::coroutine_handle<> waiter = t.waiter;
  txns_.give_back(t);
  if (waiter) waiter.resume();
}

void CoherentMemory::prefetch(sim::ProcId p, Addr a, unsigned bytes) {
  const Cache& c = cache_of(p);
  if (bytes == 0) return;
  const Line first = line_of(a);
  const Line last = line_of(a + bytes - 1);
  for (Line l = first; l <= last; ++l) {
    if (c.lookup(l) != LineState::kInvalid) continue;
    if (in_flight(p, l) != nullptr) continue;  // already in flight
    // A read of the one line that no coroutine awaits; demand accesses
    // merge with it through the MSHR.
    miss(p, l, l, /*exclusive=*/false, nullptr);
    ++stats_.prefetches;
  }
}

void CoherentMemory::start_invalidation(Txn& t, sim::ProcId sharer) {
  Leg& l = legs_.take();
  l.mem = this;
  l.txn = &t;
  l.line = t.line;
  l.at = sharer;
  next<&CoherentMemory::inv_arrived>(l);
  send(home_of_line(t.line), sharer, kWordsRequest, &l);
}

void CoherentMemory::inv_arrived(Leg& l) {
  // At the sharer: the controller handles INV, then acks.
  next<&CoherentMemory::inv_handled>(l);
  occupy(l.at, &l);
}

void CoherentMemory::inv_handled(Leg& l) {
  // A stale sharer (silent eviction) acks without effect.
  caches_[l.at].set_state(l.line, LineState::kInvalid);
  next<&CoherentMemory::ack_arrived>(l);
  send(l.at, home_of_line(l.line), kWordsRequest, &l);
}

void CoherentMemory::ack_arrived(Leg& l) {
  Txn& t = *l.txn;
  legs_.give_back(l);
  if (--t.pending == 0) acked(t);
}

void CoherentMemory::start_writeback(sim::ProcId p, Line line) {
  ++stats_.writebacks;
  Leg& l = legs_.take();
  l.mem = this;
  l.txn = nullptr;
  l.line = line;
  l.at = p;
  next<&CoherentMemory::wb_arrived>(l);
  send(p, home_of_line(line), kWordsData, &l);
}

void CoherentMemory::wb_arrived(Leg& l) {
  next<&CoherentMemory::wb_handled>(l);
  occupy(home_of_line(l.line), &l);
}

void CoherentMemory::wb_handled(Leg& l) {
  const sim::ProcId p = l.at;
  const Line line = l.line;
  legs_.give_back(l);
  Dir& d = record(line);  // made by the transaction that dirtied the line
  if (d.modified && d.owner == p) {
    d.modified = false;
    d.owner = sim::kNoProc;
    const Sharers s = sharers_of(d);
    s.clear();
    check_line(line, d, s);
  }
}

CoherentMemory::DirSnapshot CoherentMemory::dir_snapshot(Line line) const {
  if (!allocated(line)) return {};
  const std::uint64_t off = line_offset(line);
  std::byte* const chunk = dirs_[home_of_line(line)][off / kDirChunk].get();
  if (chunk == nullptr) return {};  // no transaction has touched its chunk
  Dir& d = record_in(chunk, off % kDirChunk);
  const Sharers s = sharers_of(d);
  DirSnapshot snap{d.modified, d.owner, {}, d.head != nullptr};
  for (sim::ProcId p = 0; p < machine_->size(); ++p) {
    if (s.test(p)) snap.sharers.set(p);
  }
  return snap;
}

}  // namespace cm::shmem
