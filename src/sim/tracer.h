// Structured event tracing: cycle-timestamped, typed events on
// per-processor tracks, exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Nonintrusive by construction, in the spirit of Proteus' instrumentation:
// recording an event reads the engine clock and appends to a host-side
// buffer — it never schedules events, draws random numbers, or charges
// simulated cycles, so a traced run produces bit-identical simulation
// results to an untraced one. When no tracer is installed
// (Engine::tracer() == nullptr, the default) every instrumentation site is
// a single pointer test and all outputs are bit-identical to a build that
// never heard of tracing.
//
// Msg ids come from per-lane counters keyed on the *sending* context's
// label lane (engine.h), making them a pure function of causal history; a
// single-lane program sees the sequence 1, 2, 3, ...
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.h"
#include "sim/types.h"

namespace cm::sim {

/// Every event the instrumented layers can emit. One enum (rather than free
/// strings) keeps recording allocation-free and lets tests assert exact
/// coverage per type.
enum class TraceEvent : unsigned {
  // net: one send/deliver pair per wire message, linked by a "msg" id.
  kMsgSend = 0,
  kMsgDeliver,
  // core::Runtime: computation migration and RPC control flow.
  kMigrateBegin,        // activation leaves its processor
  kMigrateArrive,       // continuation unmarshalled at the destination
  kMigrateFallback,     // MOVE exhausted its retry budget; stayed put
  kShortCircuitReply,   // migrated activation replies straight home
  kRpcIssue,            // client stub launches a remote call
  kRpcReply,            // reply delivered to the blocked caller
  kThreadCreate,        // server-side thread for an RPC / continuation
  // core::Replicated: software replication of read-mostly objects.
  kReplicaFetch,
  kReplicaInvalidate,
  // core::ReliableTransport: the price of reliability.
  kRetransmit,
  kTimeout,
  kDedup,
  // net::FaultyNetwork: injected faults.
  kFaultDrop,
  kFaultDuplicate,
  kFaultDelay,
  kFaultNicDrop,
  // loc::Locator: distributed object location.
  kLocLookup,    // remote resolution started (object not local)
  kLocHit,       // translation cache supplied the hint
  kLocMiss,      // cache miss; a directory shard was queried
  kLocBounce,    // request landed on a stale host; forwarded one hop
  kLocCompress,  // chain collapsed after the request found the object
  // ft: fail-stop failure detection and recovery.
  kFtSuspect,         // detector declared a processor's NIC dead
  kFtAbort,           // reliable send cancelled (peer suspected / deadline)
  kFtEvacuate,        // stranded activation rebound to a live processor
  kFtFailover,        // directory lookup re-routed to a shard replica
  kFtChainCut,        // forwarding chain through a dead node severed
  kFtPromote,         // object recovered by promoting a replica copy
  kFtRehome,          // object recovery committed at its new home
  kFtLost,            // object declared unrecoverable
  kFtReplyRecovered,  // reply reconstructed after its transfer failed
  // policy: load-aware placement and phase-adaptive replication.
  kPolicySample,    // per-processor load/profile sample on the engine clock
  kPolicyDecision,  // rebalancer verdict or phase edge at an object's home
  kPolicyMove,      // rebalancer issued a bounded attract for an object
  kPolicyFlip,      // phase detector toggled an object's replication mode
  // applications.
  kBalancerVisit,   // counting network: token traverses a balancer
  kBTreeNodeVisit,  // B-tree: operation examines a node
  kCount,
};

[[nodiscard]] constexpr std::string_view trace_event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kMsgSend: return "msg.send";
    case TraceEvent::kMsgDeliver: return "msg.deliver";
    case TraceEvent::kMigrateBegin: return "migrate.begin";
    case TraceEvent::kMigrateArrive: return "migrate.arrive";
    case TraceEvent::kMigrateFallback: return "migrate.fallback";
    case TraceEvent::kShortCircuitReply: return "migrate.short_circuit";
    case TraceEvent::kRpcIssue: return "rpc.issue";
    case TraceEvent::kRpcReply: return "rpc.reply";
    case TraceEvent::kThreadCreate: return "thread.create";
    case TraceEvent::kReplicaFetch: return "replica.fetch";
    case TraceEvent::kReplicaInvalidate: return "replica.invalidate";
    case TraceEvent::kRetransmit: return "reliable.retransmit";
    case TraceEvent::kTimeout: return "reliable.timeout";
    case TraceEvent::kDedup: return "reliable.dedup";
    case TraceEvent::kFaultDrop: return "fault.drop";
    case TraceEvent::kFaultDuplicate: return "fault.duplicate";
    case TraceEvent::kFaultDelay: return "fault.delay";
    case TraceEvent::kFaultNicDrop: return "fault.nic_drop";
    case TraceEvent::kLocLookup: return "loc.lookup";
    case TraceEvent::kLocHit: return "loc.hit";
    case TraceEvent::kLocMiss: return "loc.miss";
    case TraceEvent::kLocBounce: return "loc.bounce";
    case TraceEvent::kLocCompress: return "loc.compress";
    case TraceEvent::kFtSuspect: return "ft.suspect";
    case TraceEvent::kFtAbort: return "ft.abort";
    case TraceEvent::kFtEvacuate: return "ft.evacuate";
    case TraceEvent::kFtFailover: return "ft.failover";
    case TraceEvent::kFtChainCut: return "ft.chain_cut";
    case TraceEvent::kFtPromote: return "ft.promote";
    case TraceEvent::kFtRehome: return "ft.rehome";
    case TraceEvent::kFtLost: return "ft.lost";
    case TraceEvent::kFtReplyRecovered: return "ft.reply_recovered";
    case TraceEvent::kPolicySample: return "policy.sample";
    case TraceEvent::kPolicyDecision: return "policy.decision";
    case TraceEvent::kPolicyMove: return "policy.move";
    case TraceEvent::kPolicyFlip: return "policy.flip";
    case TraceEvent::kBalancerVisit: return "balancer.visit";
    case TraceEvent::kBTreeNodeVisit: return "btree.node_visit";
    case TraceEvent::kCount: break;
  }
  return "?";
}

/// Perfetto category, for filtering whole layers in the UI.
[[nodiscard]] constexpr std::string_view trace_event_category(TraceEvent e) {
  switch (e) {
    case TraceEvent::kMsgSend:
    case TraceEvent::kMsgDeliver:
      return "net";
    case TraceEvent::kMigrateBegin:
    case TraceEvent::kMigrateArrive:
    case TraceEvent::kMigrateFallback:
    case TraceEvent::kShortCircuitReply:
      return "migration";
    case TraceEvent::kRpcIssue:
    case TraceEvent::kRpcReply:
    case TraceEvent::kThreadCreate:
      return "rpc";
    case TraceEvent::kReplicaFetch:
    case TraceEvent::kReplicaInvalidate:
      return "replication";
    case TraceEvent::kRetransmit:
    case TraceEvent::kTimeout:
    case TraceEvent::kDedup:
      return "reliable";
    case TraceEvent::kFaultDrop:
    case TraceEvent::kFaultDuplicate:
    case TraceEvent::kFaultDelay:
    case TraceEvent::kFaultNicDrop:
      return "fault";
    case TraceEvent::kLocLookup:
    case TraceEvent::kLocHit:
    case TraceEvent::kLocMiss:
    case TraceEvent::kLocBounce:
    case TraceEvent::kLocCompress:
      return "loc";
    case TraceEvent::kFtSuspect:
    case TraceEvent::kFtAbort:
    case TraceEvent::kFtEvacuate:
    case TraceEvent::kFtFailover:
    case TraceEvent::kFtChainCut:
    case TraceEvent::kFtPromote:
    case TraceEvent::kFtRehome:
    case TraceEvent::kFtLost:
    case TraceEvent::kFtReplyRecovered:
      return "ft";
    case TraceEvent::kPolicySample:
    case TraceEvent::kPolicyDecision:
    case TraceEvent::kPolicyMove:
    case TraceEvent::kPolicyFlip:
      return "policy";
    case TraceEvent::kBalancerVisit:
    case TraceEvent::kBTreeNodeVisit:
      return "app";
    case TraceEvent::kCount:
      break;
  }
  return "?";
}

/// One key/value annotation on an event; keys must be string literals (the
/// tracer stores the pointer, not a copy).
struct TraceArg {
  const char* key;
  std::uint64_t value;
};

class Tracer {
 public:
  /// Events are timestamped with `engine.now()` at record time.
  explicit Tracer(Engine& engine) : engine_(&engine) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record `ev` on processor `track` at the current cycle, with up to
  /// `kMaxArgs` annotations.
  void record(TraceEvent ev, ProcId track,
              std::initializer_list<TraceArg> args = {});

  /// Fresh id linking a msg.send to its msg.deliver:
  /// (sender lane << 40) | per-lane count.
  [[nodiscard]] std::uint64_t next_msg_id();

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::uint64_t count(TraceEvent ev) const noexcept {
    return counts_[static_cast<unsigned>(ev)];
  }

  /// The whole trace as a Chrome trace-event JSON object
  /// ({"traceEvents": [...]}) with per-processor thread tracks, in record
  /// order.
  [[nodiscard]] std::string chrome_json() const;

  /// Write `chrome_json()` to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  static constexpr std::size_t kMaxArgs = 4;

 private:
  struct Record {
    Cycles t;
    TraceEvent ev;
    ProcId track;
    std::uint8_t nargs;
    std::array<TraceArg, kMaxArgs> args;
  };

  Engine* engine_;
  std::vector<Record> records_;
  std::array<std::uint64_t, static_cast<unsigned>(TraceEvent::kCount)>
      counts_{};
  ProcId max_track_ = 0;
  std::vector<std::uint64_t> msg_cnt_;  // per-lane msg-id counters
};

}  // namespace cm::sim
