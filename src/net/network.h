// Interconnect abstraction. Both runtime messages (RPC requests/replies,
// migrated activations) and cache-coherence protocol messages travel through
// the same Network object, so the bandwidth numbers reported for Figure 3 /
// Tables 2 and 4 account for *all* traffic, exactly as in the paper.
//
// A message is delivered in one of two ways. `send` runs a closure at the
// arrival time. `send_resume` wakes a `sim::Wake` instead, a suspended
// coroutine or a frame-free Continuation, as an engine resume event
// (Engine::resume_at_on): no `std::function`, no arena slot. Both count and
// time a message alike, and the arrival event has the same cycle, home and
// label either way.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.h"
#include "sim/types.h"

namespace cm::net {

/// Classification of traffic for reporting; does not affect timing.
enum class Traffic : std::uint8_t {
  kRuntime,    // RPC / migration / replication messages (software)
  kCoherence,  // directory-protocol messages (hardware)
};

/// Cumulative traffic counters. Benchmarks snapshot these around the
/// measurement window to compute "words sent / 10 cycles".
struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t runtime_messages = 0;
  std::uint64_t runtime_words = 0;
  std::uint64_t coherence_messages = 0;
  std::uint64_t coherence_words = 0;

  // Injected-fault accounting (nonzero only behind a FaultyNetwork). A
  // dropped message never reaches the wire, so it appears here and NOT in
  // the traffic counters above; a duplicated message's clone is real
  // traffic and is counted in both.
  std::uint64_t faults_dropped = 0;      // messages erased in flight
  std::uint64_t faults_duplicated = 0;   // extra copies injected
  std::uint64_t faults_delayed = 0;      // messages held back (reordering)
  std::uint64_t faults_nic_dropped = 0;  // victims of a fail-stopped NIC

  void record(Traffic kind, unsigned w) noexcept {
    ++messages;
    words += w;
    if (kind == Traffic::kRuntime) {
      ++runtime_messages;
      runtime_words += w;
    } else {
      ++coherence_messages;
      coherence_words += w;
    }
  }
};

class Network {
 public:
  virtual ~Network() = default;

  /// Send a `words`-word message from `src` to `dst`; `deliver` runs at the
  /// arrival time (in an engine event at the destination). The destination
  /// CPU is NOT implicitly occupied — message-handling software costs are
  /// charged by the runtime layer; hardware protocol handling is charged to
  /// the memory controller by the coherence layer.
  virtual void send(sim::ProcId src, sim::ProcId dst, unsigned words,
                    Traffic kind, std::function<void()> deliver) = 0;

  /// `send` for a receiver that is a suspended coroutine or a
  /// Continuation: `w` wakes at the arrival time, as if `deliver` were
  /// `[w] { w(); }`. With a tracer or checker installed the message takes
  /// that closure path, so the observers see every message as before.
  virtual void send_resume(sim::ProcId src, sim::ProcId dst, unsigned words,
                           Traffic kind, sim::Wake w) = 0;

  /// Pure timing query: cycles a `words`-word message takes src -> dst under
  /// zero load. Used by analytic checks and tests.
  [[nodiscard]] virtual sim::Cycles latency(sim::ProcId src, sim::ProcId dst,
                                            unsigned words) const = 0;

  /// Whole-machine traffic counters. Virtual so decorators (FaultyNetwork)
  /// can fold their fault counters in.
  [[nodiscard]] virtual const NetStats& stats() const noexcept {
    return stats_;
  }

 protected:
  /// Concrete networks count each wire message here.
  void record(Traffic kind, unsigned words) noexcept {
    stats_.record(kind, words);
  }

  /// Whether a resume delivery must take the closure path: a tracer or
  /// checker is installed and hooks every message.
  [[nodiscard]] static bool observed(const sim::Engine& engine) noexcept {
    return engine.tracer() != nullptr || engine.checker() != nullptr;
  }

  /// Count a message that crosses the wire and run the installed observers'
  /// send hooks. The tracer records the send and the checker snapshots the
  /// sender's clock; each wraps `deliver` so that its deliver hook runs
  /// first at arrival. Routing and scheduling stay with the caller.
  void depart(sim::Engine& engine, sim::ProcId src, sim::ProcId dst,
              unsigned words, Traffic kind, std::function<void()>& deliver);

 private:
  NetStats stats_;
};

}  // namespace cm::net
