#include "net/constant_net.h"

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::net {

void ConstantNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                           Traffic kind, std::function<void()> deliver) {
  if (src == dst) {
    // Loopback (e.g. coherence request for a locally-homed line): delivered
    // immediately and not counted as network traffic.
    engine_->after(0, std::move(deliver));
    return;
  }
  record(kind, words);
  if (sim::Tracer* tr = engine_->tracer()) {
    const std::uint64_t id = tr->next_msg_id();
    tr->record(sim::TraceEvent::kMsgSend, src,
               {{"dst", dst},
                {"words", words},
                {"coherence", kind == Traffic::kCoherence},
                {"msg", id}});
    deliver = [tr, dst, id, d = std::move(deliver)] {
      tr->record(sim::TraceEvent::kMsgDeliver, dst, {{"msg", id}});
      d();
    };
  }
  if (check::Checker* ck = engine_->checker()) {
    // Every cross-processor delivery is a happens-before edge: the token
    // snapshots the sender's vector clock now, the wrapper joins it into the
    // receiver's clock at delivery time. Loopback above is program order.
    const std::uint64_t hb = ck->on_send(src, dst);
    deliver = [ck, dst, hb, d = std::move(deliver)] {
      ck->on_deliver(dst, hb);
      d();
    };
  }
  // Deliveries are homed at the destination: the receiver's lane labels
  // whatever the delivery schedules.
  engine_->after_on(dst, latency(src, dst, words), std::move(deliver));
}

sim::Cycles ConstantNetwork::latency(sim::ProcId src, sim::ProcId dst,
                                     unsigned words) const {
  if (src == dst) return 0;
  return cfg_.launch + cfg_.per_word * words;
}

}  // namespace cm::net
