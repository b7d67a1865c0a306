#include "net/constant_net.h"

namespace cm::net {

void ConstantNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                           Traffic kind, std::function<void()> deliver) {
  if (src == dst) {
    // Loopback (e.g. coherence request for a locally-homed line): delivered
    // immediately and not counted as network traffic.
    engine_->after(0, std::move(deliver));
    return;
  }
  depart(*engine_, src, dst, words, kind, deliver);
  // Deliveries are homed at the destination: the receiver's lane labels
  // whatever the delivery schedules.
  engine_->after_on(dst, latency(src, dst, words), std::move(deliver));
}

void ConstantNetwork::send_resume(sim::ProcId src, sim::ProcId dst,
                                  unsigned words, Traffic kind,
                                  sim::Wake w) {
  if (observed(*engine_)) {
    send(src, dst, words, kind, [w] { w(); });
    return;
  }
  // The events `send` schedules: loopback at now(), homed at the current
  // home; a wire message at the destination, after its latency.
  if (src == dst) {
    engine_->resume_at_on(engine_->current_home(), engine_->now(), w);
    return;
  }
  record(kind, words);
  engine_->resume_at_on(dst, engine_->now() + latency(src, dst, words), w);
}

sim::Cycles ConstantNetwork::latency(sim::ProcId src, sim::ProcId dst,
                                     unsigned words) const {
  if (src == dst) return 0;
  return cfg_.launch + cfg_.per_word * words;
}

}  // namespace cm::net
