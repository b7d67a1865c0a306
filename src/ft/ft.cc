#include "ft/ft.h"

#include <utility>

#include "check/checker.h"
#include "core/replication.h"

namespace cm::ft {

using core::Category;
using core::CostModel;
using sim::TraceEvent;

constexpr unsigned kHeartbeatWords = 1;  // keepalive payload
constexpr unsigned kMonitors = 2;        // ring successors each proc heartbeats
constexpr unsigned kRestoreWords = 16;   // simulated backup-restore payload
constexpr unsigned kControlWords = 1;    // promotion/control payload

FtLayer::FtLayer(core::Runtime& rt, FtConfig cfg, loc::Locator* locator)
    : rt_(&rt),
      cfg_(cfg),
      locator_(locator),
      nprocs_(rt.machine().size()),
      epoch_(nprocs_, core::kNoFailureEpoch),
      last_heard_(nprocs_, 0) {
  for (ProcId p = 0; p < nprocs_; ++p) {
    heartbeats_.push_back({{&Heartbeat::arrive}, this, p});
  }
  if (!cfg_.enabled) return;
  rt_->set_fault_tolerance(this);
  if (locator_ != nullptr && locator_->attached()) {
    locator_->set_fault_tolerance(this);
  }
}

FtLayer::~FtLayer() {
  if (!cfg_.enabled) return;
  if (rt_->fault_tolerance() == this) rt_->set_fault_tolerance(nullptr);
  if (locator_ != nullptr && locator_->attached()) {
    locator_->set_fault_tolerance(nullptr);
  }
}

void FtLayer::trace(TraceEvent ev, ProcId track,
                    std::initializer_list<sim::TraceArg> args) {
  if (sim::Tracer* tr = rt_->tracer()) tr->record(ev, track, args);
}

void FtLayer::note_planned_failure(ProcId p, Cycles at) {
  planned_[p] = at;
  ++stats_.planned_failures;
  if (check::Checker* ck = rt_->checker()) ck->on_fail_stop(p, at);
}

void FtLayer::note_plan(const net::FaultPlan& plan) {
  for (const auto& [p, at] : plan.nic_fail_at) note_planned_failure(p, at);
}

void FtLayer::start() {
  if (!cfg_.enabled || running_) return;
  running_ = true;
  last_heard_.assign(nprocs_, engine().now());
  arm_sweep();
}

void FtLayer::arm_sweep() {
  sim::Engine& eng = engine();
  sweep_.due = eng.now() + cfg_.heartbeat_interval;
  eng.resume_at_on(eng.current_home(), sweep_.due, &sweep_);
}

void FtLayer::Sweep::fire(sim::Continuation* c) {
  auto* const s = static_cast<Sweep*>(c);
  if (s->ft->engine().now() == s->due) s->ft->sweep();
}

void FtLayer::sweep() {
  if (!running_) return;
  const Cycles now = engine().now();
  // Heartbeats: every unsuspected processor pings its ring monitors. These
  // are NIC-level keepalives — zero CPU cycles, but real messages, so a
  // planned NIC death silently eats them (net::FaultyNetwork) and the
  // sender's lease stops renewing.
  const unsigned hb_words = kHeartbeatWords + rt_->cost().header_words;
  for (ProcId p = 0; p < nprocs_; ++p) {
    if (suspected(p)) continue;
    for (unsigned i = 0; i < kMonitors; ++i) {
      const auto mon = static_cast<ProcId>((p + 1 + i) % nprocs_);
      if (mon == p) continue;
      ++stats_.heartbeats_sent;
      // Heartbeats must ride the raw lossy network: a dead NIC silently
      // eating them is the failure signal itself, and a retransmitting
      // transport would mask exactly what the detector measures. A lost
      // heartbeat only lets a lease age; a duplicate renews it twice.
      // simlint: allow SS002
      rt_->network().send(p, mon, hb_words, net::Traffic::kRuntime,
                          &heartbeats_[p]);
    }
  }
  // Lease expiry: anyone silent for `lease_misses` whole intervals is
  // declared dead. Fail-stop NICs never speak again, so suspicion is
  // permanent and there is no rejoin path.
  const Cycles lease = cfg_.heartbeat_interval * cfg_.lease_misses;
  for (ProcId p = 0; p < nprocs_; ++p) {
    if (suspected(p)) continue;
    if (now - last_heard_[p] > lease) suspect(p, now);
  }
  arm_sweep();
}

void FtLayer::Heartbeat::arrive(sim::Continuation* c) {
  const auto* hb = static_cast<Heartbeat*>(c);
  hb->ft->on_heartbeat(hb->from);
}

void FtLayer::on_heartbeat(ProcId from) {
  if (!running_ || suspected(from)) return;
  last_heard_[from] = engine().now();
  ++stats_.leases_renewed;
  if (check::Checker* ck = rt_->checker()) {
    ck->on_lease(from, engine().now() +
                           cfg_.heartbeat_interval * cfg_.lease_misses);
  }
}

void FtLayer::suspect(ProcId p, Cycles now) {
  if (suspected(p)) return;
  epoch_[p] = now;
  ++stats_.suspicions;
  if (const auto it = planned_.find(p);
      it != planned_.end() && now >= it->second) {
    ++stats_.detected;
    stats_.detect_latency_sum += now - it->second;
  }
  if (check::Checker* ck = rt_->checker()) ck->on_suspect(p);
  trace(TraceEvent::kFtSuspect, p, {{"epoch", now}});
  // Enqueue every object homed on the dead processor, ascending id order
  // (ObjectSpace ids are dense, so this scan is the deterministic order in
  // which recovery commits).
  core::ObjectSpace& os = rt_->objects();
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < os.size(); ++i) {
    const auto id = static_cast<ObjectId>(i);
    if (os.home_of(id) == p) {
      pending_.insert(id);
      ids.push_back(id);
    }
  }
  sim::detach(recover_proc(p, now, std::move(ids)));
}

ProcId FtLayer::evacuation_target(ProcId dead) const {
  for (ProcId off = 1; off < nprocs_; ++off) {
    const auto p = static_cast<ProcId>((dead + off) % nprocs_);
    if (!suspected(p)) return p;
  }
  return dead;  // every processor is dead; nowhere left to go
}

ProcId FtLayer::rehome_target(ObjectId id, ProcId dead) const {
  // Scatter re-homed objects by id so one crash does not dump its whole
  // population onto a single neighbour.
  const auto start = static_cast<ProcId>((dead + 1 + id % nprocs_) % nprocs_);
  for (ProcId off = 0; off < nprocs_; ++off) {
    const auto p = static_cast<ProcId>((start + off) % nprocs_);
    if (p != dead && !suspected(p)) return p;
  }
  return dead;
}

sim::Task<> FtLayer::await_object(ObjectId id) {
  if (!pending_.contains(id)) co_return;
  auto barrier = sim::suspend_to([this, id](std::coroutine_handle<> h) {
    waiters_[id].push_back(h);
  });
  co_await barrier;
}

sim::Task<> FtLayer::recover_proc(ProcId dead, Cycles epoch,
                                  std::vector<ObjectId> ids) {
  // Detached root: nothing below throws (recovery signals failure by
  // condemning objects, never by exceptions).
  const ProcId coord = evacuation_target(dead);
  for (const ObjectId id : ids) {
    if (rt_->objects().home_of(id) != dead) {
      // An in-flight move committed the object elsewhere while it queued
      // for recovery: it is already safe. Close the window trivially.
      settle(id);
      continue;
    }
    co_await recover_object(id, dead, coord, epoch);
  }
}

sim::Task<> FtLayer::recover_object(ObjectId id, ProcId dead, ProcId coord,
                                    Cycles epoch) {
  const CostModel& c = rt_->cost();
  // 1. Replica promotion: a valid core::Replicated copy mirrors exactly the
  // state the NIC death could not touch, so the lowest live processor
  // holding one becomes the new primary at the cost of a control message.
  for (core::Replicated* r : rt_->replicated_objects()) {
    if (r->primary() != id) continue;
    ProcId target = sim::kNoProc;
    for (ProcId p = 0; p < nprocs_; ++p) {
      if (p == dead || suspected(p)) continue;
      if (r->valid_at(p)) {
        target = p;
        break;
      }
    }
    if (target == sim::kNoProc) break;  // no live copy; fall through
    if (coord != target) {
      co_await rt_->charge(coord, c.sender_total(kControlWords),
                           Category::kReplication);
      co_await rt_->transfer(coord, target, kControlWords);
      co_await rt_->charge(target,
                           c.receiver_total(kControlWords,
                                            /*create_thread=*/false),
                           Category::kReplication);
    }
    r->rehome(target);
    ++stats_.replica_promotions;
    trace(TraceEvent::kFtPromote, target, {{"obj", id}, {"dead", dead}});
    commit(id, dead, target, epoch);
    co_return;
  }
  // 2. Backup restore: re-materialise the object's state (kRestoreWords of
  // simulated stable storage) on a deterministic refuge processor.
  if (cfg_.rehome_unreplicated) {
    const ProcId target = rehome_target(id, dead);
    if (coord != target) {
      co_await rt_->charge(coord, c.sender_total(kRestoreWords),
                           Category::kReplication);
      co_await rt_->transfer(coord, target, kRestoreWords);
    }
    co_await rt_->charge(target,
                         c.receiver_total(kRestoreWords,
                                          /*create_thread=*/true),
                         Category::kReplication);
    ++stats_.rehomes;
    commit(id, dead, target, epoch);
    co_return;
  }
  // 3. Lost for good: no replica, no backup. Every later call on the object
  // throws ObjectLostError; waiters resume to observe the loss.
  lost_.insert(id);
  ++stats_.objects_lost;
  trace(TraceEvent::kFtLost, dead, {{"obj", id}});
  settle(id);
}

void FtLayer::commit(ObjectId id, ProcId dead, ProcId target, Cycles epoch) {
  rt_->objects().move(id, target);
  if (locator_ != nullptr && locator_->attached()) {
    locator_->on_rehome(id, dead, target);
  }
  if (check::Checker* ck = rt_->checker()) ck->on_rehome(id, dead, target);
  trace(TraceEvent::kFtRehome, target, {{"obj", id}, {"from", dead}});
  stats_.rehome_latency_sum += engine().now() - epoch;
  ++stats_.recoveries;
  settle(id);
}

void FtLayer::settle(ObjectId id) {
  pending_.erase(id);
  const auto it = waiters_.find(id);
  if (it == waiters_.end()) return;
  std::vector<std::coroutine_handle<>> parked = std::move(it->second);
  waiters_.erase(it);
  for (const std::coroutine_handle<> h : parked) h.resume();
}

void put_ft_stats(core::Metrics& m, const FtStats& s) {
  m.put("ft.heartbeats_sent", s.heartbeats_sent);
  m.put("ft.leases_renewed", s.leases_renewed);
  m.put("ft.suspicions", s.suspicions);
  m.put("ft.detected", s.detected);
  m.put("ft.planned_failures", s.planned_failures);
  m.put("ft.detect_latency_mean", s.mean_detect_latency());
  m.put("ft.rehomes", s.rehomes);
  m.put("ft.replica_promotions", s.replica_promotions);
  m.put("ft.objects_lost", s.objects_lost);
  m.put("ft.recoveries", s.recoveries);
  m.put("ft.rehome_latency_mean", s.mean_rehome_latency());
}

}  // namespace cm::ft
