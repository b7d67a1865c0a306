#include "net/faulty_net.h"

#include "sim/tracer.h"

namespace cm::net {

const FaultRates& FaultyNetwork::rates_for(sim::ProcId src,
                                           sim::ProcId dst) const {
  const auto it = plan_.link_overrides.find({src, dst});
  return it != plan_.link_overrides.end() ? it->second : plan_.rates;
}

bool FaultyNetwork::nic_dead(sim::ProcId p) const noexcept {
  const auto it = plan_.nic_fail_at.find(p);
  return it != plan_.nic_fail_at.end() && engine_->now() >= it->second;
}

void FaultyNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                         Traffic kind, sim::Wake w) {
  // Neither loopback nor coherence traffic is ever faulted.
  if (src == dst || kind == Traffic::kCoherence) {
    inner_->send(src, dst, words, kind, w);
    return;
  }
  sim::Tracer* tr = engine_->tracer();
  // A fail-stopped NIC eats the message before it reaches the wire.
  if (nic_dead(src) || nic_dead(dst)) {
    ++faults_.faults_nic_dropped;
    if (tr) {
      tr->record(sim::TraceEvent::kFaultNicDrop, src,
                 {{"dst", dst}, {"words", words}});
    }
    return;
  }
  const sim::Cycles now = engine_->now();
  if (now < plan_.window_start || now >= plan_.window_end) {
    inner_->send(src, dst, words, kind, w);
    return;
  }
  const FaultRates& r = rates_for(src, dst);
  if (r.drop > 0.0 && rng_.chance(r.drop)) {
    ++faults_.faults_dropped;
    if (tr) {
      tr->record(sim::TraceEvent::kFaultDrop, src,
                 {{"dst", dst}, {"words", words}});
    }
    return;
  }
  // A duplicate or a delayed message is the same wake sent again to the
  // inner network from a deferred event, 1..max_extra_delay cycles on.
  const sim::Cycles span = std::max<sim::Cycles>(plan_.max_extra_delay, 1);
  const auto send_later = [&](sim::TraceEvent ev) {
    const sim::Cycles extra = 1 + rng_.below(span);
    if (tr) {
      tr->record(ev, src, {{"dst", dst}, {"words", words}, {"extra", extra}});
    }
    Deferred* d = free_ != nullptr ? std::exchange(free_, free_->next_free)
                                   : &deferred_.emplace_back();
    *d = {{&Deferred::send_on}, this, nullptr, src, dst, words, kind, w};
    engine_->resume_at_on(engine_->current_home(), now + extra, d);
  };
  if (r.duplicate > 0.0 && rng_.chance(r.duplicate)) {
    // The clone crosses the wire as a real (later) message; receivers must
    // dedup.
    ++faults_.faults_duplicated;
    send_later(sim::TraceEvent::kFaultDuplicate);
  }
  if (r.delay > 0.0 && rng_.chance(r.delay)) {
    // Holding the message back reorders it w.r.t. anything sent on the link
    // in the meantime (the inner network has no ordering guarantee across
    // injection times).
    ++faults_.faults_delayed;
    send_later(sim::TraceEvent::kFaultDelay);
    return;
  }
  inner_->send(src, dst, words, kind, w);
}

void FaultyNetwork::Deferred::send_on(sim::Continuation* c) {
  auto* const d = static_cast<Deferred*>(c);
  // Copy the record out and free it first: the inner send may defer again.
  const Deferred copy = *d;
  d->next_free = copy.net->free_;
  copy.net->free_ = d;
  copy.net->inner_->send(copy.src, copy.dst, copy.words, copy.kind,
                         copy.wake);
}

const NetStats& FaultyNetwork::stats() const noexcept {
  merged_ = inner_->stats();
  merged_.faults_dropped = faults_.faults_dropped;
  merged_.faults_duplicated = faults_.faults_duplicated;
  merged_.faults_delayed = faults_.faults_delayed;
  merged_.faults_nic_dropped = faults_.faults_nic_dropped;
  return merged_;
}

}  // namespace cm::net
