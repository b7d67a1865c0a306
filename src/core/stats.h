// Runtime statistics: operation counters plus the per-category cycle
// breakdown that regenerates the paper's Table 5.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/types.h"

namespace cm::core {

/// Categories matching the rows of Table 5 (receiver/sender split is
/// recovered from which side charged the cost).
enum class Category : unsigned {
  kUserCode = 0,
  kNetworkTransit,   // wire time (not CPU)
  kCopyPacket,
  kThreadCreation,
  kRecvLinkage,
  kUnmarshal,
  kOidTranslation,
  kScheduler,
  kForwardingCheck,
  kRecvAllocPacket,
  kSendLinkage,
  kSendAllocPacket,
  kMessageSend,
  kMarshal,
  kLocalityCheck,
  kReplication,      // replica fetch / invalidation handling
  kGeneralStub,      // general-purpose RPC stub overhead (§4.3)
  kObjectMove,       // Emerald-style object transfer handling
  kCount,
};

[[nodiscard]] constexpr std::string_view category_name(Category c) {
  switch (c) {
    case Category::kUserCode: return "User code";
    case Category::kNetworkTransit: return "Network transit";
    case Category::kCopyPacket: return "Copy packet";
    case Category::kThreadCreation: return "Thread creation";
    case Category::kRecvLinkage: return "Procedure linkage (recv)";
    case Category::kUnmarshal: return "Unmarshaling";
    case Category::kOidTranslation: return "Object ID translation";
    case Category::kScheduler: return "Scheduler";
    case Category::kForwardingCheck: return "Forwarding check";
    case Category::kRecvAllocPacket: return "Allocate packet (recv)";
    case Category::kSendLinkage: return "Procedure linkage (send)";
    case Category::kSendAllocPacket: return "Allocate packet (send)";
    case Category::kMessageSend: return "Message send";
    case Category::kMarshal: return "Marshaling";
    case Category::kLocalityCheck: return "Locality check";
    case Category::kReplication: return "Replication";
    case Category::kGeneralStub: return "General stub overhead";
    case Category::kObjectMove: return "Object transfer";
    case Category::kCount: break;
  }
  return "?";
}

struct Breakdown {
  std::array<std::uint64_t, static_cast<unsigned>(Category::kCount)> cycles{};

  void add(Category c, sim::Cycles n) noexcept {
    cycles[static_cast<unsigned>(c)] += n;
  }
  [[nodiscard]] std::uint64_t get(Category c) const noexcept {
    return cycles[static_cast<unsigned>(c)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t s = 0;
    for (auto v : cycles) s += v;
    return s;
  }
  /// Everything except user code and wire time: the "message overhead".
  [[nodiscard]] std::uint64_t overhead() const noexcept {
    return total() - get(Category::kUserCode) - get(Category::kNetworkTransit);
  }
};

struct RtStats {
  std::uint64_t local_calls = 0;     // instance-method calls that were local
  std::uint64_t remote_calls = 0;    // RPCs issued
  std::uint64_t fast_path_calls = 0; // short methods (no thread created)
  std::uint64_t threads_created = 0;
  std::uint64_t migrations = 0;        // activations actually shipped
  std::uint64_t migrations_local = 0;  // annotation hit a local object (free)
  std::uint64_t migrated_words = 0;
  std::uint64_t replies = 0;
  std::uint64_t replica_hits = 0;
  std::uint64_t replica_fetches = 0;
  std::uint64_t replica_invalidations = 0;
  std::uint64_t object_moves = 0;        // Emerald-style object transfers
  std::uint64_t moved_object_words = 0;

  // Reliable-transport counters; all stay zero unless the runtime's
  // reliability layer is enabled (chaos / fault-injection runs).
  std::uint64_t reliable_sends = 0;      // payload transfers through the
                                         // ack/retransmit protocol
  std::uint64_t retransmits = 0;         // extra DATA copies after a timeout
  std::uint64_t timeouts_fired = 0;      // ack timers that expired
  std::uint64_t acks_sent = 0;           // receiver-NIC acknowledgements
  std::uint64_t dedup_hits = 0;          // duplicate DATA suppressed
  std::uint64_t stale_deliveries = 0;    // DATA arriving after the sender
                                         // already gave up (discarded)
  std::uint64_t delivery_failures = 0;   // sends that exhausted their budget
  std::uint64_t migration_fallbacks = 0; // MOVE gave up; the activation
                                         // stayed put and later accesses
                                         // fall back to plain RPC

  // Fault-tolerance counters; all stay zero unless a FaultTolerance service
  // is installed (fail-stop crash runs).
  std::uint64_t ft_suspect_aborts = 0;   // sends aborted: peer suspected dead
  std::uint64_t ft_deadline_aborts = 0;  // sends aborted: deadline expired
  std::uint64_t ft_call_retries = 0;     // calls re-issued after an abort
  std::uint64_t ft_recovered_replies = 0;  // replies reconstructed after the
                                           // reply transfer failed (effects
                                           // committed exactly once)
  std::uint64_t ft_evacuations = 0;      // activations rebound off dead procs
  Breakdown breakdown;
};

}  // namespace cm::core
