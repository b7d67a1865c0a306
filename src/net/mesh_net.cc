#include "net/mesh_net.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace cm::net {

MeshNetwork::MeshNetwork(sim::Engine& engine, unsigned nprocs, MeshConfig cfg)
    : engine_(&engine), cfg_(cfg), nprocs_(nprocs) {
  if (cfg_.width == 0) {
    throw std::invalid_argument("MeshNetwork: width must be > 0");
  }
  height_ = (nprocs + cfg_.width - 1) / cfg_.width;
  if (height_ == 0) height_ = 1;
  coords_.reserve(nprocs);
  for (unsigned p = 0; p < nprocs; ++p) {
    coords_.push_back(Coord{p % cfg_.width, p / cfg_.width});
  }
  links_.resize(static_cast<std::size_t>(cfg_.width) * height_ * 4);
}

unsigned MeshNetwork::hops(sim::ProcId src, sim::ProcId dst) const {
  check_endpoints(src, dst);
  const Coord s = coords_[src];
  const Coord d = coords_[dst];
  const unsigned ddx = s.x > d.x ? s.x - d.x : d.x - s.x;
  const unsigned ddy = s.y > d.y ? s.y - d.y : d.y - s.y;
  return ddx + ddy;
}

sim::Cycles MeshNetwork::route(sim::ProcId src, sim::ProcId dst,
                               unsigned words, sim::Cycles start) {
  const Coord s = coords_[src];
  const Coord d = coords_[dst];
  const sim::Cycles per_hop = cfg_.per_hop;
  const sim::Cycles tail = static_cast<sim::Cycles>(cfg_.per_word) * words;
  const sim::Cycles occupancy = per_hop + tail;
  // Head flit time at the current node; the tail lags by words*per_word.
  sim::Cycles head = start + cfg_.launch;
  auto cross = [&](Link& link) {
    const sim::Cycles begin = std::max(head, link.free_at);
    link.free_at = begin + occupancy;
    head = begin + per_hop;
    link.words += words;
  };

  // The X leg along the source's row, then the Y leg along the
  // destination's column; `at` is the current node's first link.
  Link* at = links_.data() + std::size_t{src} * 4;
  const std::ptrdiff_t row = std::ptrdiff_t{4} * cfg_.width;
  if (s.x < d.x) {
    for (unsigned i = s.x; i != d.x; ++i, at += 4) cross(at[0]);
  } else {
    for (unsigned i = d.x; i != s.x; ++i, at -= 4) cross(at[1]);
  }
  if (s.y < d.y) {
    for (unsigned i = s.y; i != d.y; ++i, at += row) cross(at[2]);
  } else {
    for (unsigned i = d.y; i != s.y; ++i, at -= row) cross(at[3]);
  }
  // Tail arrives after the payload has serialised through the final link.
  return head + tail;
}

void MeshNetwork::throw_outside(sim::ProcId src, sim::ProcId dst) const {
  throw std::out_of_range("MeshNetwork: message " + std::to_string(src) +
                          " -> " + std::to_string(dst) + " leaves the " +
                          std::to_string(nprocs_) + "-processor machine");
}

void MeshNetwork::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                       Traffic kind, sim::Wake w) {
  check_endpoints(src, dst);
  if (src == dst) {
    // Loopback: local delivery, not network traffic.
    engine_->resume_at_on(engine_->current_home(), engine_->now(), w);
    return;
  }
  const sim::Wake arrive = depart(*engine_, src, dst, words, kind, w);
  // Home the delivery at the destination, as ConstantNetwork does.
  engine_->resume_at_on(dst, route(src, dst, words, engine_->now()), arrive);
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
