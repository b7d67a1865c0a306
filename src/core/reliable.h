// Reliable runtime messaging over an unreliable Network: per-link sequence
// numbers, receiver-side deduplication, NIC-level acks, and timeout-driven
// retransmission with exponential backoff. Delivery is at-least-once on the
// wire but exactly-once at the application level — the awaiting activation
// is resumed exactly once, on the first copy that arrives (matching
// Network::send's "resume at the destination" contract), or once with
// failure if a bounded retry budget runs out before anything arrives.
//
// Acks are generated autonomously by the receiving NIC at delivery time and
// charge no CPU cycles (register-mapped interface, as in the paper's
// hardware-support discussion); they do consume network bandwidth, which the
// chaos benches report as the price of reliability. Duplicates re-ack
// because the previous ack may itself have been lost.
//
// The runtime only installs this layer for fault-injection runs; the raw
// transfer path is untouched otherwise, so fault-free experiments remain
// bit-identical to the unreliable-era system.
//
// Interaction with fail-stop crashes (FaultPlan::nic_fail_at): a dead NIC
// never delivers and never acks, so an unbounded send (`budget = 0`) to it
// would retransmit forever — the sender's coroutine hangs and the event
// queue never drains. With a FaultTolerance service installed
// (set_fault_tolerance), such a send instead resolves as a
// `delivery_failures` outcome the moment the peer is suspected (or its
// send_deadline expires, whichever is first): the timer path stops
// retransmitting, excuses the seq with the checker, and wakes the sender
// with false. Without the service the pre-crash behaviour — including the
// hang — is bit-identical, which is exactly the no-overhead guarantee.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "core/ft.h"
#include "core/stats.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace cm::core {

struct ReliableConfig {
  sim::Cycles base_timeout = 400;   // first ack deadline; must exceed the
                                    // loaded round-trip time
  sim::Cycles max_timeout = 6400;   // exponential-backoff cap
  unsigned ack_words = 2;           // ack size on the wire (incl. header)
  unsigned move_retry_budget = 10;  // attempts for migration MOVE messages
                                    // before falling back to RPC
};

class ReliableTransport {
 public:
  ReliableTransport(sim::Engine& engine, net::Network& network,
                    RtStats& stats, ReliableConfig cfg)
      : engine_(&engine), network_(&network), stats_(&stats), cfg_(cfg) {}

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  /// Ship `words` from `src` to `dst`. Resumes the awaiter at first
  /// delivery; retransmission machinery keeps running in the background
  /// until the message is acked. `budget` caps total send attempts
  /// (0 = retry forever); returns false only when the budget was exhausted
  /// before any copy arrived, in which case a late copy is discarded at the
  /// receiver rather than resuming anything. `deadline` (absolute cycle,
  /// 0 = none) bounds how long an unacked send may keep retrying when a
  /// FaultTolerance service is installed; it is ignored otherwise. The
  /// caller refuses a send to an endpoint already suspected (Runtime's
  /// `Transfer` fails it fast), so every send reaches the wire.
  [[nodiscard]] sim::Task<bool> send(sim::ProcId src, sim::ProcId dst,
                                     unsigned words, unsigned budget = 0,
                                     sim::Cycles deadline = 0);

  /// Install the fail-stop suspicion source (null = crash-free behaviour).
  void set_fault_tolerance(const FaultTolerance* ft) noexcept { ft_ = ft; }

  [[nodiscard]] const ReliableConfig& config() const noexcept { return cfg_; }

 private:
  struct SendState;  // shared by the delivery / ack / timer callbacks

  void attempt(const std::shared_ptr<SendState>& st);
  void on_data(const std::shared_ptr<SendState>& st);
  void on_timeout(const std::shared_ptr<SendState>& st);

  /// Per-directed-link transport state. `delivered` remembers every seq
  /// accepted so duplicates are recognised for the whole run — fine at
  /// simulation scale; a real implementation would prune via cumulative
  /// acks.
  struct Channel {
    std::uint64_t next_seq = 0;
    std::unordered_set<std::uint64_t> delivered;
  };
  Channel& channel(sim::ProcId src, sim::ProcId dst) {
    return channels_[{src, dst}];
  }

  sim::Engine* engine_;
  net::Network* network_;
  RtStats* stats_;
  ReliableConfig cfg_;
  const FaultTolerance* ft_ = nullptr;  // null = never suspect anyone
  std::map<std::pair<sim::ProcId, sim::ProcId>, Channel> channels_;
};

}  // namespace cm::core
