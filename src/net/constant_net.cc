#include "net/constant_net.h"

namespace cm::net {

void ConstantNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                           Traffic kind, sim::Wake w) {
  if (src == dst) {
    // Loopback (e.g. coherence request for a locally-homed line): delivered
    // immediately, homed where the sender runs, and not counted as network
    // traffic.
    engine_->resume_at_on(engine_->current_home(), engine_->now(), w);
    return;
  }
  const sim::Wake arrive = depart(*engine_, src, dst, words, kind, w);
  // Deliveries are homed at the destination: the receiver's lane labels
  // whatever the delivery schedules.
  engine_->resume_at_on(dst, engine_->now() + latency(src, dst, words),
                        arrive);
}

sim::Cycles ConstantNetwork::latency(sim::ProcId src, sim::ProcId dst,
                                     unsigned words) const {
  if (src == dst) return 0;
  return cfg_.launch + cfg_.per_word * words;
}

}  // namespace cm::net
