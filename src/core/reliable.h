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
// would retransmit forever — the sender hangs and the event queue never
// drains. With a FaultTolerance service installed (set_fault_tolerance),
// such a send instead resolves as a `delivery_failures` outcome the moment
// the peer is suspected (or its send_deadline expires, whichever is first):
// the deadline leg stops retransmitting, excuses the seq with the checker,
// and wakes the sender with false. Without the service the pre-crash
// behaviour — including the hang — is bit-identical, which is exactly the
// no-overhead guarantee.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>

#include "core/ft.h"
#include "core/stats.h"
#include "net/network.h"
#include "sim/engine.h"
#include "sim/types.h"
#include "sim/wake.h"

namespace cm::core {

struct ReliableConfig {
  sim::Cycles base_timeout = 400;   // first ack deadline; must exceed the
                                    // loaded round-trip time
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

  /// Ship `words` from `src` to `dst`, then set `*delivered` and wake
  /// `then`, once: at first delivery, with true; or with false once the
  /// send gives up before any copy arrived, after which a late copy is
  /// discarded at the receiver rather than run. Retransmission keeps going
  /// until the message is acked. `budget` caps total send attempts
  /// (0 = retry forever). `deadline` (absolute cycle, 0 = none) bounds how
  /// long an unacked send may keep retrying when a FaultTolerance service
  /// is installed; it is ignored otherwise. The caller refuses a send to an
  /// endpoint already suspected (Runtime's `Transfer` fails it fast), so
  /// every send reaches the wire.
  void send(sim::ProcId src, sim::ProcId dst, unsigned words, unsigned budget,
            sim::Cycles deadline, bool* delivered, sim::Wake then);

  /// Install the fail-stop suspicion source (null = crash-free behaviour).
  void set_fault_tolerance(const FaultTolerance* ft) noexcept { ft_ = ft; }

 private:
  /// One seq's send record, which settles the sender: a send makes no
  /// coroutine frame. Every copy of its data message wakes `data`, every
  /// copy of its ack `ack`, and each attempt's ack deadline `expiry`: all
  /// re-runnable and as long-lived as the transport, so the fault layer may
  /// drop, duplicate or delay a copy, and a late copy re-runs a step the
  /// flags have settled. Nothing is cancelled: an ack sets `acked`, and the
  /// pending deadline (at most one, armed by the attempt) then does nothing.
  struct Send {
    struct Leg : sim::Continuation {
      Send* send;
    };

    ReliableTransport* transport;
    sim::ProcId src;
    sim::ProcId dst;
    unsigned words;
    unsigned budget;  // 0 = unbounded
    std::uint64_t seq;
    sim::Cycles timeout;
    sim::Cycles deadline;  // absolute give-up cycle; 0 = none
    bool* delivered;       // the sender's verdict...
    sim::Wake then;        // ...and what is woken once it is set
    unsigned attempts = 0;
    bool acked = false;
    bool received = false;  // a copy of the data has arrived
    bool done = false;      // the sender has been woken
    Leg data{{&arrived}, this};
    Leg ack{{&arrived}, this};
    Leg expiry{{&arrived}, this};

    static void arrived(sim::Continuation* c);  // a copy, or the deadline
  };

  void attempt(Send& s);
  void on_data(Send& s);
  void on_timeout(Send& s);
  /// Count a delivery failure, excuse the seq from the checker's end-of-run
  /// gapless check, and wake the sender with false. Only for a send no copy
  /// of which has arrived (`!s.done`).
  void give_up(Send& s);

  sim::Engine* engine_;
  net::Network* network_;
  RtStats* stats_;
  ReliableConfig cfg_;
  const FaultTolerance* ft_ = nullptr;  // null = never suspect anyone
  // Per directed link, every seq's record, seq i at index i — fine at
  // simulation scale; a real implementation would prune via cumulative acks.
  std::map<std::pair<sim::ProcId, sim::ProcId>, std::deque<Send>> channels_;
};

}  // namespace cm::core
