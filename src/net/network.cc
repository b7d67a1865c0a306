#include "net/network.h"

#include <utility>

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::net {

void Network::depart(sim::Engine& engine, sim::ProcId src, sim::ProcId dst,
                     unsigned words, Traffic kind,
                     std::function<void()>& deliver) {
  record(kind, words);
  if (sim::Tracer* tr = engine.tracer()) {
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
  if (check::Checker* ck = engine.checker()) {
    // Every cross-processor delivery is a happens-before edge: the token
    // snapshots the sender's vector clock now, the wrapper joins it into the
    // receiver's clock at delivery time. Loopback, which never departs, is
    // program order.
    const std::uint64_t hb = ck->on_send(src, dst);
    deliver = [ck, dst, hb, d = std::move(deliver)] {
      ck->on_deliver(dst, hb);
      d();
    };
  }
}

}  // namespace cm::net
