#include "net/network.h"

#include <utility>

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::net {

sim::Wake Network::observe(sim::Engine& engine, sim::ProcId src,
                           sim::ProcId dst, unsigned words, Traffic kind,
                           sim::Wake w) {
  Observed* o = free_ != nullptr ? std::exchange(free_, free_->next_free)
                                 : &observed_.emplace_back();
  *o = {{&Observed::deliver}, this, nullptr, w, engine.tracer(),
        engine.checker(), 0, 0, dst};
  if (o->tracer != nullptr) {
    o->msg = o->tracer->next_msg_id();
    o->tracer->record(sim::TraceEvent::kMsgSend, src,
                      {{"dst", dst},
                       {"words", words},
                       {"coherence", kind == Traffic::kCoherence},
                       {"msg", o->msg}});
  }
  if (o->checker != nullptr) {
    // Every cross-processor delivery is a happens-before edge: the token
    // snapshots the sender's vector clock now, and the record joins it into
    // the receiver's clock at delivery time. Loopback, which never departs,
    // is program order.
    o->hb = o->checker->on_send(src, dst);
  }
  return o;
}

void Network::Observed::deliver(sim::Continuation* c) {
  auto* const o = static_cast<Observed*>(c);
  // Copy the record out and free it first: the wake may send again.
  const Observed seen = *o;
  o->next_free = seen.net->free_;
  seen.net->free_ = o;
  if (seen.checker != nullptr) seen.checker->on_deliver(seen.dst, seen.hb);
  if (seen.tracer != nullptr) {
    seen.tracer->record(sim::TraceEvent::kMsgDeliver, seen.dst,
                        {{"msg", seen.msg}});
  }
  seen.wake();
}

}  // namespace cm::net
