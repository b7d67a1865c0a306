#include "net/mesh_net.h"

#include <algorithm>
#include <stdexcept>

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::net {

MeshNetwork::MeshNetwork(sim::Engine& engine, unsigned nprocs, MeshConfig cfg)
    : engine_(&engine), cfg_(cfg) {
  if (cfg_.width == 0) {
    throw std::invalid_argument("MeshNetwork: width must be > 0");
  }
  height_ = (nprocs + cfg_.width - 1) / cfg_.width;
  if (height_ == 0) height_ = 1;
  links_.resize(static_cast<std::size_t>(cfg_.width) * height_ * 4);
}

unsigned MeshNetwork::hops(sim::ProcId src, sim::ProcId dst) const {
  const unsigned sx = src % cfg_.width, sy = src / cfg_.width;
  const unsigned dx = dst % cfg_.width, dy = dst / cfg_.width;
  const unsigned ddx = sx > dx ? sx - dx : dx - sx;
  const unsigned ddy = sy > dy ? sy - dy : dy - sy;
  return ddx + ddy;
}

sim::Cycles MeshNetwork::route(sim::ProcId src, sim::ProcId dst,
                               unsigned words, sim::Cycles start) {
  // Head flit time at the current node; the tail lags by words*per_word.
  sim::Cycles head = start + cfg_.launch;
  const sim::Cycles occupancy =
      cfg_.per_hop + static_cast<sim::Cycles>(cfg_.per_word) * words;

  unsigned x = src % cfg_.width, y = src / cfg_.width;
  const unsigned dx = dst % cfg_.width, dy = dst / cfg_.width;

  auto cross = [&](unsigned dir, unsigned& coord, bool forward) {
    Link& link = links_[link_index(x, y, dir)];
    const sim::Cycles begin = std::max(head, link.free_at);
    link.free_at = begin + occupancy;
    head = begin + cfg_.per_hop;
    link.words += words;
    coord = forward ? coord + 1 : coord - 1;
  };

  while (x != dx) {
    if (x < dx) {
      cross(0, x, true);
    } else {
      cross(1, x, false);
    }
  }
  while (y != dy) {
    if (y < dy) {
      cross(2, y, true);
    } else {
      cross(3, y, false);
    }
  }
  // Tail arrives after the payload has serialised through the final link.
  return head + static_cast<sim::Cycles>(cfg_.per_word) * words;
}

void MeshNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                       Traffic kind, std::function<void()> deliver) {
  if (src == dst) {
    // Loopback: local delivery, not network traffic.
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
    // Same happens-before edge as ConstantNetwork: snapshot the sender's
    // clock on send, join it into the receiver's on delivery.
    const std::uint64_t hb = ck->on_send(src, dst);
    deliver = [ck, dst, hb, d = std::move(deliver)] {
      ck->on_deliver(dst, hb);
      d();
    };
  }
  // Home the delivery at the destination, as ConstantNetwork does.
  const sim::Cycles arrive = route(src, dst, words, engine_->now());
  engine_->at_on(dst, arrive, std::move(deliver));
}

sim::Cycles MeshNetwork::latency(sim::ProcId src, sim::ProcId dst,
                                 unsigned words) const {
  if (src == dst) return 0;
  // Zero-load: the head pays launch plus one router delay per hop, the tail
  // serialises behind it on the final link. Closed-form — identical to an
  // uncontended walk of `route`, but provably side-effect-free.
  return cfg_.launch +
         static_cast<sim::Cycles>(cfg_.per_hop) * hops(src, dst) +
         static_cast<sim::Cycles>(cfg_.per_word) * words;
}

std::uint64_t MeshNetwork::max_link_words() const {
  std::uint64_t best = 0;
  for (const Link& link : links_) best = std::max(best, link.words);
  return best;
}

}  // namespace cm::net
