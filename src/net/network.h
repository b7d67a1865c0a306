// Interconnect abstraction. Both runtime messages (RPC requests/replies,
// migrated activations) and cache-coherence protocol messages travel through
// the same Network object, so the bandwidth numbers reported for Figure 3 /
// Tables 2 and 4 account for *all* traffic, exactly as in the paper.
//
// A message has one way to be delivered: `send` wakes a `sim::Wake` (a
// suspended coroutine or a frame-free Continuation) as an engine resume
// event at the arrival time, observed or not. With a tracer or checker
// installed, `depart` runs their send hooks and the event wakes a pooled
// `Observed` record instead, which runs their deliver hooks, then the wake.
// ConstantNetwork and MeshNetwork also take a callable through a thin
// adapter (`detail::deliver_to`); `Network&` and FaultyNetwork do not, as a
// dropped copy would leak the adapter's frame and a duplicate would resume
// a finished one.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>

#include "sim/engine.h"
#include "sim/task.h"
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
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  virtual ~Network() = default;

  /// Send a `words`-word message from `src` to `dst`; `w` wakes at the
  /// arrival time, in an event homed at `dst` (a loopback message wakes at
  /// once, homed where the sender runs, and is not traffic). The destination
  /// CPU is NOT occupied: the runtime and the coherence layer charge the
  /// handling. On traffic a FaultyNetwork can fault, `w` must be re-runnable
  /// and outlive every copy in flight.
  virtual void send(sim::ProcId src, sim::ProcId dst, unsigned words,
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
  /// Count a message that crosses the wire and run the observers' send
  /// hooks; return what its arrival event wakes: `w`, or an `Observed`
  /// record when a tracer or checker is installed. The caller routes.
  [[nodiscard]] sim::Wake depart(sim::Engine& engine, sim::ProcId src,
                                 sim::ProcId dst, unsigned words, Traffic kind,
                                 sim::Wake w) {
    stats_.record(kind, words);
    if (engine.tracer() == nullptr && engine.checker() == nullptr) return w;
    return observe(engine, src, dst, words, kind, w);
  }

 private:
  /// An observed message's wake: the observers' deliver hooks, then the
  /// message's own; it runs once and goes back to the pool.
  struct Observed : sim::Continuation {
    Network* net = nullptr;
    Observed* next_free = nullptr;
    sim::Wake wake = std::coroutine_handle<>();
    sim::Tracer* tracer;
    check::Checker* checker;
    std::uint64_t msg;  // the tracer's msg id
    std::uint64_t hb;   // the checker's happens-before token
    sim::ProcId dst;

    static void deliver(sim::Continuation* c);
  };

  /// `depart`'s observed half: the tracer's `msg.send`, then the checker's
  /// `on_send`, noted in a pooled `Observed`.
  [[nodiscard]] sim::Wake observe(sim::Engine& engine, sim::ProcId src,
                                  sim::ProcId dst, unsigned words,
                                  Traffic kind, sim::Wake w);

  NetStats stats_;
  std::deque<Observed> observed_;  // every record made; freed with the network
  Observed* free_ = nullptr;       // records not in flight
};

namespace detail {

/// The callable send's adapter: a detached coroutine that parks on `net`'s
/// wake send and calls `deliver` when the message arrives.
template <class Net, class F>
sim::Detached deliver_to(Net& net, sim::ProcId src, sim::ProcId dst,
                         unsigned words, Traffic kind, F deliver) {
  co_await sim::suspend_to(
      [&net, src, dst, words, kind](std::coroutine_handle<> h) {
        net.send(src, dst, words, kind, h);
      });
  deliver();
}

}  // namespace detail

/// What the callable send takes: a callable that is not a wake, so a
/// coroutine handle or a `Continuation*` picks the wake send.
template <class F>
concept Callback = std::invocable<F&> && !std::convertible_to<F, sim::Wake>;

}  // namespace cm::net
