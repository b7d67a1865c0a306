#include "core/replication.h"

namespace cm::core {

Replicated::Replicated(Runtime& rt, ObjectId primary, unsigned object_words)
    : rt_(&rt),
      primary_(primary),
      home_(rt.objects().home_of(primary)),
      object_words_(object_words),
      valid_(rt.machine().size(), false) {
  valid_[home_] = true;
  rt.register_replicated(this);
}

Replicated::~Replicated() { rt_->unregister_replicated(this); }

sim::Task<> Replicated::ensure(Ctx& ctx) {
  const ProcId p = ctx.proc;
  co_await rt_->charge(p, rt_->cost().locality_check,
                       Category::kLocalityCheck);
  if (p == home_ || valid_[p]) {
    ++rt_->mutable_stats().replica_hits;
    co_return;
  }
  if (FaultTolerance* ft = rt_->fault_tolerance();
      ft != nullptr && ft->suspected(home_)) {
    // The primary's host is dead: wait for its recovery to promote a copy
    // (or restore one), then fetch from wherever it re-homed.
    co_await ft->await_object(primary_);
    home_ = rt_->objects().home_of(primary_);
    if (p == home_ || valid_[p]) {
      ++rt_->mutable_stats().replica_hits;
      co_return;
    }
  }
  ++rt_->mutable_stats().replica_fetches;
  if (sim::Tracer* tr = rt_->tracer()) {
    tr->record(sim::TraceEvent::kReplicaFetch, p,
               {{"obj", primary_}, {"home", home_}});
  }

  const CostModel& c = rt_->cost();
  // Fetch request (short message) ...
  co_await rt_->charge(p, c.sender_total(1), Category::kReplication);
  co_await rt_->transfer(p, home_, 1);
  // ... served on the primary's processor without creating a thread (a
  // short method in the paper's sense) ...
  co_await rt_->charge(home_, c.receiver_total(1, /*create_thread=*/false),
                       Category::kReplication);
  // ... and the object's contents come back.
  co_await rt_->charge(home_, c.sender_total(object_words_),
                       Category::kReplication);
  co_await rt_->transfer(home_, p, object_words_);
  co_await rt_->charge(p, c.reply_receive(object_words_),
                       Category::kReplication);
  valid_[p] = true;
}

void Replicated::rebind(ObjectId new_primary) {
  primary_ = new_primary;
  home_ = rt_->objects().home_of(new_primary);
  valid_.assign(valid_.size(), false);
  valid_[home_] = true;
}

void Replicated::rehome(ProcId new_home) {
  home_ = new_home;
  valid_[new_home] = true;
}

sim::Task<> Replicated::invalidate_all(Ctx& ctx) {
  const CostModel& c = rt_->cost();
  FaultTolerance* ft = rt_->fault_tolerance();
  std::vector<ProcId> targets;
  for (ProcId p = 0; p < static_cast<ProcId>(valid_.size()); ++p) {
    if (p == home_ || !valid_[p]) continue;
    if (ft != nullptr && ft->suspected(p)) {
      // A dead holder can neither serve its copy nor ack an invalidation:
      // drop it from the valid set without messaging it (the gathered-ack
      // barrier below would otherwise never resolve).
      valid_[p] = false;
      continue;
    }
    targets.push_back(p);
  }
  if (targets.empty()) co_return;
  rt_->mutable_stats().replica_invalidations += targets.size();
  if (sim::Tracer* tr = rt_->tracer()) {
    tr->record(sim::TraceEvent::kReplicaInvalidate, ctx.proc,
               {{"obj", primary_}, {"count", targets.size()}});
  }

  // Broadcast invalidations from the writer's processor and gather acks.
  // Each round trip is a pair of runtime transfers, so under a fault plan it
  // rides the reliable transport and a drop cannot strand this barrier.
  AckRound round{static_cast<int>(targets.size())};
  for (const ProcId t : targets) {
    valid_[t] = false;
    co_await rt_->charge(ctx.proc, c.sender_total(1), Category::kReplication);
    sim::detach(invalidate_one(ctx.proc, t, &round));
  }
  co_await round;
  co_await rt_->charge(ctx.proc, c.reply_receive(1), Category::kReplication);
}

sim::Task<> Replicated::invalidate_one(ProcId from, ProcId target,
                                       AckRound* round) {
  const CostModel& c = rt_->cost();
  co_await rt_->transfer(from, target, 1);
  co_await rt_->charge(target, c.receiver_total(1, /*create_thread=*/false),
                       Category::kReplication);
  co_await rt_->transfer(target, from, 1);
  round->ack();  // the last ack resumes the writer, which frees `round`
}

}  // namespace cm::core
