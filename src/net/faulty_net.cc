#include "net/faulty_net.h"

#include "sim/tracer.h"

namespace cm::net {

const FaultRates& FaultyNetwork::rates_for(sim::ProcId src,
                                           sim::ProcId dst) const {
  const auto it = plan_.link_overrides.find({src, dst});
  return it != plan_.link_overrides.end() ? it->second : plan_.rates;
}

bool FaultyNetwork::in_window() const noexcept {
  const sim::Cycles now = engine_->now();
  return now >= plan_.window_start && now < plan_.window_end;
}

bool FaultyNetwork::nic_dead(sim::ProcId p) const noexcept {
  const auto it = plan_.nic_fail_at.find(p);
  return it != plan_.nic_fail_at.end() && engine_->now() >= it->second;
}

bool FaultyNetwork::faultable(sim::ProcId src, sim::ProcId dst,
                              Traffic kind) const noexcept {
  return src != dst && (kind == Traffic::kRuntime || plan_.affect_coherence);
}

void FaultyNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                         Traffic kind, std::function<void()> deliver) {
  if (!faultable(src, dst, kind)) {
    inner_->send(src, dst, words, kind, std::move(deliver));
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
  if (!in_window()) {
    inner_->send(src, dst, words, kind, std::move(deliver));
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
  const sim::Cycles span = std::max<sim::Cycles>(plan_.max_extra_delay, 1);
  if (r.duplicate > 0.0 && rng_.chance(r.duplicate)) {
    // The clone crosses the wire as a real (later) message with its own
    // copy of the delivery callback; receivers must dedup.
    ++faults_.faults_duplicated;
    const sim::Cycles extra = 1 + rng_.below(span);
    if (tr) {
      tr->record(sim::TraceEvent::kFaultDuplicate, src,
                 {{"dst", dst}, {"words", words}, {"extra", extra}});
    }
    engine_->after(extra,
                   [this, src, dst, words, kind, d = deliver]() mutable {
                     inner_->send(src, dst, words, kind, std::move(d));
                   });
  }
  if (r.delay > 0.0 && rng_.chance(r.delay)) {
    // Holding the message back reorders it w.r.t. anything sent on the link
    // in the meantime (the inner network has no ordering guarantee across
    // injection times).
    ++faults_.faults_delayed;
    const sim::Cycles extra = 1 + rng_.below(span);
    if (tr) {
      tr->record(sim::TraceEvent::kFaultDelay, src,
                 {{"dst", dst}, {"words", words}, {"extra", extra}});
    }
    engine_->after(extra,
                   [this, src, dst, words, kind,
                    d = std::move(deliver)]() mutable {
                     inner_->send(src, dst, words, kind, std::move(d));
                   });
    return;
  }
  inner_->send(src, dst, words, kind, std::move(deliver));
}

void FaultyNetwork::send_resume(sim::ProcId src, sim::ProcId dst,
                                unsigned words, Traffic kind,
                                sim::Wake w) {
  if (!faultable(src, dst, kind)) {
    inner_->send_resume(src, dst, words, kind, w);
    return;
  }
  send(src, dst, words, kind, [w] { w(); });
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
