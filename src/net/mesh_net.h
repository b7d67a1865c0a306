// 2-D mesh interconnect with dimension-ordered (X-then-Y) wormhole routing,
// in the style of the machines Proteus modelled (Alewife, J-Machine).
//
// Latency = launch + per_hop * hops + per_word * words, plus link
// contention: each unidirectional link is a FIFO server occupied for
// (words * per_word + per_hop) cycles per message crossing it, so hot links
// (e.g. around a B-tree root's home node, or under shared-memory coherence
// storms) queue and delay traffic. Per-link word counters support hotspot
// analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"

namespace cm::net {

struct MeshConfig {
  unsigned width = 8;        // processors per row; height derived from P
  sim::Cycles launch = 4;    // injection overhead
  sim::Cycles per_hop = 2;   // router/wire latency per hop
  sim::Cycles per_word = 1;  // serialisation cycles per word
};

class MeshNetwork final : public Network {
 public:
  /// `nprocs` must be <= width * ceil(nprocs/width); nodes are numbered
  /// row-major: proc p sits at (p % width, p / width). Throws
  /// std::invalid_argument if `cfg.width` is 0.
  MeshNetwork(sim::Engine& engine, unsigned nprocs, MeshConfig cfg = {});

  /// Throws std::out_of_range when `src` or `dst` is not below the
  /// machine's processor count.
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            sim::Wake w) override;

  /// `send` for a callable (network.h); throws as the wake send does,
  /// before anything is sent.
  template <Callback F>
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            F deliver) {
    check_endpoints(src, dst);
    detail::deliver_to(*this, src, dst, words, kind, std::move(deliver));
  }

  [[nodiscard]] sim::Cycles latency(sim::ProcId src, sim::ProcId dst,
                                    unsigned words) const override;

  /// Manhattan distance between two nodes under X-then-Y routing. Throws
  /// std::out_of_range when `src` or `dst` is outside the machine (as does
  /// `latency`, unless they are equal).
  [[nodiscard]] unsigned hops(sim::ProcId src, sim::ProcId dst) const;

  /// Words that crossed the most heavily used link.
  [[nodiscard]] std::uint64_t max_link_words() const;

  [[nodiscard]] unsigned width() const noexcept { return cfg_.width; }
  [[nodiscard]] unsigned height() const noexcept { return height_; }

 private:
  struct Link {
    sim::Cycles free_at = 0;  // when the link's FIFO next falls idle
    std::uint64_t words = 0;  // words that crossed it
  };

  /// A processor's place in the mesh, computed once.
  struct Coord {
    unsigned x;
    unsigned y;
  };

  /// Walk the dimension-ordered route for a real message leaving at
  /// `start`, updating link occupancy and per-link word counters; returns
  /// the arrival time. Only `send` uses this — the zero-load `latency`
  /// query is closed-form and touches no link state, so a const network can
  /// never mutate links through a timing query.
  sim::Cycles route(sim::ProcId src, sim::ProcId dst, unsigned words,
                    sim::Cycles start);

  /// Throw std::out_of_range unless both endpoints are in the machine.
  void check_endpoints(sim::ProcId src, sim::ProcId dst) const {
    if (src >= nprocs_ || dst >= nprocs_) [[unlikely]] {
      throw_outside(src, dst);
    }
  }
  [[noreturn]] void throw_outside(sim::ProcId src, sim::ProcId dst) const;

  sim::Engine* engine_;
  MeshConfig cfg_;
  unsigned nprocs_;
  unsigned height_;
  std::vector<Coord> coords_;  // processor p sits at (p % width, p / width)
  // Four links leave each node of the width x height grid, row-major: node
  // n's are at 4n + direction (0=+x, 1=-x, 2=+y, 3=-y), and processor p is
  // node p.
  std::vector<Link> links_;
};

}  // namespace cm::net
