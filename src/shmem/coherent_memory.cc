#include "shmem/coherent_memory.h"

#include <stdexcept>

#include "check/checker.h"

namespace cm::shmem {
namespace {

/// Directory-state facts at a transition's commit point, for the invariant
/// "Modified implies a valid owner that is the sole sharer; clean implies no
/// owner". Called wherever a transaction finishes mutating a Dir entry.
void check_line(check::Checker* ck, Line line, bool modified,
                std::size_t sharer_count, bool owner_valid,
                bool owner_is_sharer) {
  if (ck == nullptr) return;
  ck->on_line_state(line, modified, static_cast<unsigned>(sharer_count),
                    owner_valid, owner_is_sharer);
}

}  // namespace

CoherentMemory::CoherentMemory(sim::Machine& machine, net::Network& network,
                               CacheParams cache_params, ProtocolParams params)
    : machine_(&machine),
      network_(&network),
      params_(params),
      heap_(machine.size()),
      caches_(machine.size(), Cache(cache_params)),
      controllers_(machine.size()),
      dirs_(machine.size()),
      in_flight_(machine.size(), nullptr) {
  if (machine.size() > kMaxProcs) {
    throw std::invalid_argument(
        "CoherentMemory: more processors than the directory's kMaxProcs");
  }
}

Addr CoherentMemory::alloc(sim::ProcId home, std::uint64_t bytes) {
  const Addr a = heap_.alloc(home, bytes);
  // Growing at the end never moves an existing entry (std::deque).
  dirs_[home].resize(heap_.used(home) >> kLineShift);
  return a;
}

bool CoherentMemory::allocated(Line line) const {
  const sim::ProcId home = home_of_line(line);
  return home < dirs_.size() && line_offset(line) < dirs_[home].size();
}

void CoherentMemory::require_allocated(Line line) const {
  if (!allocated(line)) {
    throw std::out_of_range("CoherentMemory: access to unallocated memory");
  }
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
  // affect_coherence, and nothing composes that flag with this protocol
  // (pinned by FaultyNetwork.CoherenceTrafficUntouchedByDefault).
  return sim::suspend_to([this, src, dst, words](std::coroutine_handle<> h) {
    network_->send(src, dst, words, net::Traffic::kCoherence,
                   [h] { h.resume(); });
  });
}

sim::Machine::Compute CoherentMemory::trap(sim::ProcId home) {
  ++stats_.limitless_traps;
  return machine_->compute(home, params_.limitless_trap);
}

sim::Task<> CoherentMemory::read(sim::ProcId p, Addr a, unsigned bytes) {
  const Line first = line_of(a);
  const Line last = line_of(a + (bytes == 0 ? 0 : bytes - 1));
  for (Line l = first; l <= last; ++l) co_await acquire(p, l, false);
}

sim::Task<> CoherentMemory::write(sim::ProcId p, Addr a, unsigned bytes) {
  const Line first = line_of(a);
  const Line last = line_of(a + (bytes == 0 ? 0 : bytes - 1));
  for (Line l = first; l <= last; ++l) co_await acquire(p, l, true);
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
  Cache& c = caches_[p];
  {
    const LineState st = c.lookup(line);
    if (st == LineState::kModified ||
        (!exclusive && st == LineState::kShared)) {
      // Cache hit: the (1-2 cycle) hit latency is folded into the user-code
      // cycle charges, as instruction timing is in Proteus.
      exclusive ? ++stats_.write_hits : ++stats_.read_hits;
      c.touch(line);
      co_return;
    }
    require_allocated(line);
    if (exclusive) {
      ++stats_.write_misses;
      if (st == LineState::kShared) ++stats_.upgrades;
    } else {
      ++stats_.read_misses;
    }
  }

  for (;;) {
    const LineState st = c.lookup(line);
    if (st == LineState::kModified ||
        (!exclusive && st == LineState::kShared)) {
      // Satisfied by a transaction we merged with.
      c.touch(line);
      co_return;
    }

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
  if (bytes == 0) return;
  const Line first = line_of(a);
  const Line last = line_of(a + bytes - 1);
  for (Line l = first; l <= last; ++l) {
    if (caches_[p].lookup(l) != LineState::kInvalid) continue;
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
        SharerSet to_inval = d.sharers;
        to_inval.reset(w.requester);
        const int n = static_cast<int>(to_inval.count());
        if (n > 0) {
          // Invalidating an overflowed sharer set walks the software
          // directory extension.
          if (overflows(d.sharers.count())) co_await trap(home);
          stats_.invalidations += static_cast<std::uint64_t>(n);
          InvRound round{n, {}};
          for (sim::ProcId s = 0; s < machine_->size(); ++s) {
            if (to_inval.test(s)) invalidate(&round, line, home, s);
          }
          co_await sim::suspend_to(
              [&round](std::coroutine_handle<> h) { round.waiter = h; });
          co_await controller(home);  // process the final ack
        }
      }
      // Grant: full line unless the requester held a Shared copy (upgrade).
      const bool upgrade = d.sharers.test(w.requester) && !d.modified;
      d.modified = true;
      d.owner = w.requester;
      d.sharers.reset();
      d.sharers.set(w.requester);
      check_line(machine_->engine().checker(), line, d.modified,
                 d.sharers.count(), d.owner != sim::kNoProc,
                 d.owner != sim::kNoProc && d.sharers.test(d.owner));
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
        d.sharers.reset();
        d.sharers.set(owner);
      } else if (d.modified) {
        // Owner re-reading its own dirty line should have been a hit, but a
        // race with eviction can surface here; treat as a plain grant.
        d.modified = false;
        d.owner = sim::kNoProc;
      }
      d.sharers.set(w.requester);
      check_line(machine_->engine().checker(), line, d.modified,
                 d.sharers.count(), d.owner != sim::kNoProc,
                 d.owner != sim::kNoProc && d.sharers.test(d.owner));
      // Adding a sharer beyond the hardware pointer set traps to software.
      if (overflows(d.sharers.count())) co_await trap(home);
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
    d.sharers.reset();
    check_line(machine_->engine().checker(), line, d.modified,
               d.sharers.count(), d.owner != sim::kNoProc, false);
  }
}

CoherentMemory::DirSnapshot CoherentMemory::dir_snapshot(Line line) const {
  if (!allocated(line)) return {};
  const Dir& d = dirs_[home_of_line(line)][line_offset(line)];
  return DirSnapshot{d.modified, d.owner, d.sharers, d.head != nullptr};
}

}  // namespace cm::shmem
