// Uniform-latency interconnect: every message takes
//   launch + per_word * words  cycles,
// independent of the endpoint pair. This matches the paper's simple message
// model (§2.5) and its measured 17-cycle network transit (Table 5).
#pragma once

#include "net/network.h"
#include "sim/engine.h"

namespace cm::net {

struct ConstantNetConfig {
  sim::Cycles launch = 9;    // fixed wire/router latency
  sim::Cycles per_word = 1;  // additional cycles per payload word
};

class ConstantNetwork final : public Network {
 public:
  ConstantNetwork(sim::Engine& engine, ConstantNetConfig cfg = {})
      : engine_(&engine), cfg_(cfg) {}

  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            sim::Wake w) override;

  /// `send` for a callable: `deliver()` runs at arrival (network.h).
  template <Callback F>
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, Traffic kind,
            F deliver) {
    detail::deliver_to(*this, src, dst, words, kind, std::move(deliver));
  }

  [[nodiscard]] sim::Cycles latency(sim::ProcId src, sim::ProcId dst,
                                    unsigned words) const override;

 private:
  sim::Engine* engine_;
  ConstantNetConfig cfg_;
};

}  // namespace cm::net
