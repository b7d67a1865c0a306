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
  // Add chunks until the home's records cover its allocated lines. A chunk
  // starts as zero bytes (empty sharer bitmaps) with a fresh Dir at the
  // head of each record; existing chunks never move.
  auto& chunks = dirs_[home];
  const std::uint64_t lines = heap_.used(home) >> kLineShift;
  while (chunks.size() * kDirChunk < lines) {
    auto chunk = std::make_unique<std::byte[]>(kDirChunk * dir_stride_);
    for (std::uint64_t r = 0; r < kDirChunk; ++r) {
      new (chunk.get() + r * dir_stride_) Dir{};
    }
    chunks.push_back(std::move(chunk));
  }
  return a;
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

auto CoherentMemory::controller(sim::ProcId p) {
  return sim::suspend_to([this, p](std::coroutine_handle<> h) {
    sim::Engine& engine = machine_->engine();
    const sim::Cycles occupancy = params_.controller_occupancy;
    const sim::Cycles done = controllers_.acquire(p, engine.now(), occupancy);
    engine.resume_at_on(engine.current_home(), done, h);
  });
}

auto CoherentMemory::transfer(sim::ProcId src, sim::ProcId dst,
                              unsigned words) {
  // Coherence traffic models the lossless hardware fabric: FaultyNetwork
  // never faults Traffic::kCoherence unless a plan opts in with
  // affect_coherence (pinned by
  // FaultyNetwork.CoherenceTrafficUntouchedByDefault), and the workload
  // harness rejects shared memory under a plan that does. The delivery is a
  // resume event: no closure, no arena slot.
  return sim::suspend_to([this, src, dst, words](std::coroutine_handle<> h) {
    network_->send_resume(src, dst, words, net::Traffic::kCoherence, h);
  });
}

sim::Machine::Compute CoherentMemory::trap(sim::ProcId home) {
  ++stats_.limitless_traps;
  return machine_->compute(home, params_.limitless_trap);
}

sim::Task<> CoherentMemory::read(sim::ProcId p, Addr a, unsigned bytes) {
  return access(p, a, bytes, false);
}

sim::Task<> CoherentMemory::write(sim::ProcId p, Addr a, unsigned bytes) {
  return access(p, a, bytes, true);
}

sim::Task<> CoherentMemory::access(sim::ProcId p, Addr a, unsigned bytes,
                                   bool exclusive) {
  Cache& c = cache_of(p);
  const Line first = line_of(a);
  const Line last = line_of(a + (bytes == 0 ? 0 : bytes - 1));
  for (Line l = first; l <= last; ++l) {
    if (c.hit(l, exclusive)) {
      // The (1-2 cycle) hit latency is folded into the user-code cycle
      // charges, as instruction timing is in Proteus.
      exclusive ? ++stats_.write_hits : ++stats_.read_hits;
      continue;
    }
    co_await acquire(p, l, exclusive);
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

sim::Task<> CoherentMemory::acquire(sim::ProcId p, Line line, bool exclusive) {
  // Called on a miss: `line` is absent from p's cache, or Shared for a write.
  Cache& c = caches_[p];
  require_allocated(line);
  if (exclusive) {
    ++stats_.write_misses;
    if (c.lookup(line) == LineState::kShared) ++stats_.upgrades;
  } else {
    ++stats_.read_misses;
  }

  for (;;) {
    // Satisfied by a transaction we merged with?
    if (c.hit(line, exclusive)) co_return;

    // Merge with any in-flight transaction for this line (MSHR): wait for
    // it, then re-evaluate (a read in flight does not satisfy a write; the
    // loop issues the upgrade afterwards).
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

    Txn t{p, line, exclusive};
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
    co_return;
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
    sim::detach(acquire(p, l, /*exclusive=*/false));
  }
}

void CoherentMemory::enqueue(Txn& t) {
  Dir& d = dir(t.line);
  if (d.tail != nullptr) {
    d.tail->next_in_dir = &t;
    d.tail = &t;
    return;
  }
  d.head = d.tail = &t;
  serve_front(t.line);
}

sim::Detached CoherentMemory::serve_front(Line line) {
  const sim::ProcId home = home_of_line(line);
  Dir& d = dir(line);
  const Sharers sharers = sharers_of(d);
  for (;;) {
    const Txn& w = *d.head;

    co_await controller(home);  // home handles the request message

    if (w.exclusive) {
      if (d.modified && d.owner != w.requester) {
        // Fetch-invalidate the dirty owner; data returns home first.
        ++stats_.fetches;
        const sim::ProcId owner = d.owner;
        co_await transfer(home, owner, params_.words_request);
        co_await controller(owner);
        caches_[owner].set_state(line, LineState::kInvalid);
        co_await transfer(owner, home, params_.words_data);
        co_await controller(home);
      } else if (!d.modified) {
        // Invalidate every other sharer and gather acks.
        const unsigned count = sharers.count();
        const int n =
            static_cast<int>(count) - (sharers.test(w.requester) ? 1 : 0);
        if (n > 0) {
          // Invalidating an overflowed sharer set walks the software
          // directory extension.
          if (overflows(count)) co_await trap(home);
          stats_.invalidations += static_cast<std::uint64_t>(n);
          InvRound round{n, {}};
          // Sharers in ascending order; each leg runs to its first send.
          for (unsigned i = 0; i < sharers.n; ++i) {
            for (std::uint64_t bits = sharers.words[i]; bits != 0;
                 bits &= bits - 1) {
              const auto s =
                  static_cast<sim::ProcId>(64 * i + std::countr_zero(bits));
              if (s != w.requester) invalidate(&round, line, home, s);
            }
          }
          co_await sim::suspend_to(
              [&round](std::coroutine_handle<> h) { round.waiter = h; });
          co_await controller(home);  // process the final ack
        }
      }
      // Grant: full line unless the requester held a Shared copy (upgrade).
      const bool upgrade = sharers.test(w.requester) && !d.modified;
      d.modified = true;
      d.owner = w.requester;
      sharers.clear();
      sharers.set(w.requester);
      check_line(line, d, sharers);
      co_await transfer(home, w.requester,
                        upgrade ? params_.words_request : params_.words_data);
    } else {
      if (d.modified && d.owner != w.requester) {
        // Intervene at the dirty owner: downgrade M->S, write data back.
        ++stats_.fetches;
        const sim::ProcId owner = d.owner;
        co_await transfer(home, owner, params_.words_request);
        co_await controller(owner);
        caches_[owner].set_state(line, LineState::kShared);
        co_await transfer(owner, home, params_.words_data);
        co_await controller(home);
        d.modified = false;
        d.owner = sim::kNoProc;
        sharers.clear();
        sharers.set(owner);
      } else if (d.modified) {
        // Owner re-reading its own dirty line should have been a hit, but a
        // race with eviction can surface here; treat as a plain grant.
        d.modified = false;
        d.owner = sim::kNoProc;
      }
      sharers.set(w.requester);
      check_line(line, d, sharers);
      // Adding a sharer beyond the hardware pointer set traps to software.
      if (overflows(sharers.count())) co_await trap(home);
      co_await transfer(home, w.requester, params_.words_data);
    }

    // Dequeue before the grant: `w` lives in the requester's frame, which
    // may be freed while it runs.
    const std::coroutine_handle<> requester = w.waiter;
    d.head = w.next_in_dir;
    if (d.head == nullptr) d.tail = nullptr;
    requester.resume();
    if (d.head == nullptr) co_return;
    // Loop to serve the next queued transaction on this line.
  }
}

sim::Detached CoherentMemory::invalidate(InvRound* round, Line line,
                                         sim::ProcId home,
                                         sim::ProcId sharer) {
  co_await transfer(home, sharer, params_.words_request);
  // At the sharer: the controller handles INV, then acks. A stale sharer
  // (silent eviction) acks without effect.
  co_await controller(sharer);
  caches_[sharer].set_state(line, LineState::kInvalid);
  co_await transfer(sharer, home, params_.words_request);
  // The last ack resumes serve_front, which then leaves `round`'s scope.
  if (--round->pending == 0) round->waiter.resume();
}

sim::Detached CoherentMemory::writeback(sim::ProcId p, Line line) {
  ++stats_.writebacks;
  const sim::ProcId home = home_of_line(line);
  co_await transfer(p, home, params_.words_data);
  co_await controller(home);
  Dir& d = dir(line);
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
  Dir& d = dir(line);
  const Sharers s = sharers_of(d);
  DirSnapshot snap{d.modified, d.owner, {}, d.head != nullptr};
  for (sim::ProcId p = 0; p < machine_->size(); ++p) {
    if (s.test(p)) snap.sharers.set(p);
  }
  return snap;
}

}  // namespace cm::shmem
