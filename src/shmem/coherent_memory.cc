#include "shmem/coherent_memory.h"

#include <stdexcept>

#include "check/checker.h"

namespace cm::shmem {

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
  const sim::Cycles occupancy = params_.controller_occupancy;
  const sim::Cycles done = controllers_.acquire(p, engine.now(), occupancy);
  engine.resume_at_on(engine.current_home(), done, w);
}

auto CoherentMemory::controller(sim::ProcId p) {
  return sim::suspend_to(
      [this, p](std::coroutine_handle<> h) { occupy(p, h); });
}

void CoherentMemory::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                          sim::Wake w) {
  // Coherence traffic models the lossless hardware fabric: FaultyNetwork
  // never faults Traffic::kCoherence unless a plan opts in with
  // affect_coherence (pinned by
  // FaultyNetwork.CoherenceTrafficUntouchedByDefault), and the workload
  // harness rejects shared memory under a plan that does. So no copy of
  // this message is ever lost or repeated.
  // simlint: allow SS002
  network_->send(src, dst, words, net::Traffic::kCoherence, w);
}

auto CoherentMemory::transfer(sim::ProcId src, sim::ProcId dst,
                              unsigned words) {
  return sim::suspend_to([this, src, dst, words](std::coroutine_handle<> h) {
    send(src, dst, words, h);
  });
}

sim::Machine::Compute CoherentMemory::trap(sim::ProcId home) {
  ++stats_.limitless_traps;
  return machine_->compute(home, params_.limitless_trap);
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

sim::Task<> CoherentMemory::acquire(sim::ProcId p, Line line, Line last,
                                    bool exclusive) {
  // Called on a miss: `line` is absent from p's cache, or Shared for a
  // write. Once it is present, the lines after it up to `last` are looked
  // up in turn, and the next miss is served the same way.
  Cache& c = caches_[p];
  for (;;) {
    require_allocated(line);
    if (exclusive) {
      ++stats_.write_misses;
      if (c.lookup(line) == LineState::kShared) ++stats_.upgrades;
    } else {
      ++stats_.read_misses;
    }

    // Until satisfied, by our own transaction or one we merged with.
    while (!c.hit(line, exclusive)) {
      // Merge with any in-flight transaction for this line (MSHR): wait for
      // it, then re-evaluate (a read in flight does not satisfy a write;
      // the loop issues the upgrade afterwards).
      if (Txn* ongoing = in_flight(p, line)) {
        ++stats_.mshr_merges;
        Merge m;
        co_await sim::suspend_to([ongoing, &m](std::coroutine_handle<> h) {
          m.waiter = h;
          if (ongoing->merged_tail != nullptr) {
            ongoing->merged_tail->next = &m;
          } else {
            ongoing->merged_head = &m;
          }
          ongoing->merged_tail = &m;
        });
        continue;
      }

      Txn t(this, p, line, exclusive);
      t.next_in_flight = in_flight_[p];
      in_flight_[p] = &t;
      co_await transfer(p, home_of_line(line), params_.words_request);
      co_await sim::suspend_to([this, &t](std::coroutine_handle<> h) {
        t.waiter = h;
        enqueue(t);
      });

      // Install (re-check defensively).
      const LineState now_st = c.lookup(line);
      if (now_st == LineState::kInvalid) {
        const auto victim = c.install(
            line, exclusive ? LineState::kModified : LineState::kShared);
        if (victim) {
          ++stats_.evictions;
          if (victim->dirty) writeback(p, victim->line);  // clean ones drop
        }
      } else if (exclusive && now_st == LineState::kShared) {
        c.set_state(line, LineState::kModified);
        c.touch(line);
      } else {
        c.touch(line);
      }

      // Retire the MSHR, then wake everyone who merged with us, in order. A
      // woken access may finish (freeing its frame) or merge anew, so read
      // its successor first.
      Txn** link = &in_flight_[p];
      while (*link != &t) link = &(*link)->next_in_flight;
      *link = t.next_in_flight;
      for (Merge* m = t.merged_head; m != nullptr;) {
        Merge* const next = m->next;
        m->waiter.resume();
        m = next;
      }
      break;
    }

    // On to the next miss, if the range has one.
    do {
      if (line == last) co_return;
      ++line;
    } while (hit(c, line, exclusive));
  }
}

void CoherentMemory::prefetch(sim::ProcId p, Addr a, unsigned bytes) {
  const Cache& c = cache_of(p);
  if (bytes == 0) return;
  const Line first = line_of(a);
  const Line last = line_of(a + bytes - 1);
  for (Line l = first; l <= last; ++l) {
    if (c.lookup(l) != LineState::kInvalid) continue;
    if (in_flight(p, l) != nullptr) continue;  // already in flight
    require_allocated(l);
    ++stats_.prefetches;
    // Fire-and-forget read acquisition; demand accesses merge via the MSHR.
    sim::detach(acquire(p, l, l, /*exclusive=*/false));
  }
}

void CoherentMemory::enqueue(Txn& t) {
  Dir& d = record(t.line);
  t.record = &d;
  if (d.tail != nullptr) {
    d.tail->next_in_dir = &t;
    d.tail = &t;
    return;
  }
  d.head = d.tail = &t;
  advance(t);
}

void CoherentMemory::on_wake(sim::Continuation* c) noexcept {
  Txn& t = static_cast<Txn&>(*c);
  t.mem->advance(t);
}

void CoherentMemory::advance(Txn& t) {
  const Line line = t.line;
  const sim::ProcId home = home_of_line(line);
  Dir& d = *t.record;
  const Sharers sharers = sharers_of(d);
  for (;;) {
    switch (t.step) {
      case Step::kQueued:
        t.step = Step::kRequest;
        return occupy(home, &t);  // home handles the request message

      case Step::kRequest:
        if (d.modified && d.owner != t.requester) {
          // Fetch from the dirty owner; data returns home first.
          ++stats_.fetches;
          t.owner = d.owner;
          t.step = Step::kFetch;
          return send(home, t.owner, params_.words_request, &t);
        }
        if (!t.exclusive) {
          if (d.modified) {
            // Owner re-reading its own dirty line should have been a hit,
            // but a race with eviction can surface here; treat as a plain
            // grant.
            d.modified = false;
            d.owner = sim::kNoProc;
          }
          t.step = Step::kShare;
          continue;
        }
        t.step = Step::kGrantWrite;
        if (!d.modified) {
          // Invalidate every other sharer and gather acks.
          const unsigned count = sharers.count();
          t.pending =
              static_cast<int>(count) - (sharers.test(t.requester) ? 1 : 0);
          if (t.pending > 0) {
            t.step = Step::kInvalidate;
            // Invalidating an overflowed sharer set walks the software
            // directory extension.
            if (overflows(count)) return trap(home).then(&t);
          }
        }
        continue;

      case Step::kFetch:
        t.step = Step::kFetched;
        return occupy(t.owner, &t);

      case Step::kFetched:
        // A write invalidates the owner's copy; a read downgrades it M->S.
        caches_[t.owner].set_state(
            line, t.exclusive ? LineState::kInvalid : LineState::kShared);
        t.step = Step::kDataHome;
        return send(t.owner, home, params_.words_data, &t);

      case Step::kDataHome:
        t.step = Step::kDataIn;
        return occupy(home, &t);

      case Step::kDataIn:
        if (t.exclusive) {
          t.step = Step::kGrantWrite;
          continue;
        }
        d.modified = false;
        d.owner = sim::kNoProc;
        sharers.clear();
        sharers.set(t.owner);
        t.step = Step::kShare;
        continue;

      case Step::kInvalidate:
        stats_.invalidations += static_cast<std::uint64_t>(t.pending);
        t.step = Step::kAcked;
        // Sharers in ascending order; each leg runs to its first send, and
        // the last ack steps `t` on.
        for (unsigned i = 0; i < sharers.n; ++i) {
          for (std::uint64_t bits = sharers.words[i]; bits != 0;
               bits &= bits - 1) {
            const auto s =
                static_cast<sim::ProcId>(64 * i + std::countr_zero(bits));
            if (s != t.requester) invalidate(&t, s);
          }
        }
        return;

      case Step::kAcked:
        t.step = Step::kGrantWrite;
        return occupy(home, &t);  // process the final ack

      case Step::kGrantWrite: {
        // Full line unless the requester held a Shared copy (upgrade).
        const bool upgrade = sharers.test(t.requester) && !d.modified;
        d.modified = true;
        d.owner = t.requester;
        sharers.clear();
        sharers.set(t.requester);
        check_line(line, d, sharers);
        t.step = Step::kGranted;
        return send(home, t.requester,
                    upgrade ? params_.words_request : params_.words_data, &t);
      }

      case Step::kShare:
        sharers.set(t.requester);
        check_line(line, d, sharers);
        t.step = Step::kGrantRead;
        // Adding a sharer beyond the hardware pointer set traps to software.
        if (overflows(sharers.count())) return trap(home).then(&t);
        continue;

      case Step::kGrantRead:
        t.step = Step::kGranted;
        return send(home, t.requester, params_.words_data, &t);

      case Step::kGranted: {
        // Dequeue before the grant: `t` lives in the requester's frame,
        // which may be freed while it runs.
        const std::coroutine_handle<> requester = t.waiter;
        Txn* const next = t.next_in_dir;
        d.head = next;
        if (next == nullptr) d.tail = nullptr;
        requester.resume();
        if (next != nullptr) advance(*next);  // serve the next in line
        return;
      }
    }
  }
}

sim::Detached CoherentMemory::invalidate(Txn* t, sim::ProcId sharer) {
  const Line line = t->line;
  const sim::ProcId home = home_of_line(line);
  co_await transfer(home, sharer, params_.words_request);
  // At the sharer: the controller handles INV, then acks. A stale sharer
  // (silent eviction) acks without effect.
  co_await controller(sharer);
  caches_[sharer].set_state(line, LineState::kInvalid);
  co_await transfer(sharer, home, params_.words_request);
  // The last ack steps the transaction on, inline (Step::kAcked).
  if (--t->pending == 0) advance(*t);
}

sim::Detached CoherentMemory::writeback(sim::ProcId p, Line line) {
  ++stats_.writebacks;
  const sim::ProcId home = home_of_line(line);
  co_await transfer(p, home, params_.words_data);
  co_await controller(home);
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
