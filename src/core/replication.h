// Software replication of read-mostly objects (multi-version memory,
// Weihl-Wang 1990). Used for the "w/repl." schemes: the B-tree root is
// replicated on every processor, so lookups consult a local copy instead of
// all migrating to (or RPC-ing) the root's processor, relieving the root
// bottleneck. Writers invalidate every replica before modifying the object.
#pragma once

#include <coroutine>
#include <type_traits>
#include <vector>

#include "core/runtime.h"

namespace cm::core {

class Replicated {
 public:
  /// `primary` is the authoritative object; `object_words` is the payload
  /// size of a replica fetch (the object's contents). Registers with the
  /// runtime's replica registry so crash recovery can promote a copy.
  Replicated(Runtime& rt, ObjectId primary, unsigned object_words);
  ~Replicated();
  Replicated(const Replicated&) = delete;
  Replicated& operator=(const Replicated&) = delete;

  [[nodiscard]] ObjectId primary() const noexcept { return primary_; }
  [[nodiscard]] ProcId home() const noexcept { return home_; }
  [[nodiscard]] bool valid_at(ProcId p) const { return valid_.at(p); }

  /// Make `ctx.proc`'s replica usable: free if it is the primary's home or
  /// the local replica is valid; otherwise a 2-message fetch from the
  /// primary. Afterwards the caller reads the object locally.
  [[nodiscard]] sim::Task<> ensure(Ctx& ctx);

  /// Invalidate every remote replica (broadcast + gathered acks, one
  /// `invalidate_one` per replica). Called by a writer before it modifies
  /// the primary; the writer should be running at the primary's home.
  [[nodiscard]] sim::Task<> invalidate_all(Ctx& ctx);

  /// Point the replica set at a different primary (e.g. after a root split
  /// replaces the replicated root). All replicas become invalid; callers
  /// should have run `invalidate_all` first so the timing is charged.
  void rebind(ObjectId new_primary);

  /// Crash recovery re-homed the primary (ft::FtLayer promoted the copy at
  /// `new_home`, or restored one there). Replicas mirror the same state the
  /// crash could not touch, so the surviving valid set stays valid.
  void rehome(ProcId new_home);

 private:
  /// The writer's gathered-ack barrier for one invalidation round. It lives
  /// in invalidate_all's frame; the last ack resumes the writer inline, and
  /// a writer whose acks are all in already does not suspend.
  struct AckRound {
    int pending;  // acks outstanding
    std::coroutine_handle<> waiter = nullptr;

    bool await_ready() const noexcept { return pending == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept { waiter = h; }
    void await_resume() const noexcept {}
    void ack() {
      if (--pending == 0 && waiter != nullptr) waiter.resume();
    }
  };
  static_assert(std::is_trivially_destructible_v<AckRound>);

  /// One invalidate/ack round trip (detached, one per target): two runtime
  /// transfers, reliable under a fault plan, around the holder's handler.
  [[nodiscard]] sim::Task<> invalidate_one(ProcId from, ProcId target,
                                           AckRound* round);

  Runtime* rt_;
  ObjectId primary_;
  ProcId home_;
  unsigned object_words_;
  std::vector<bool> valid_;  // per processor; home entry is always true
};

}  // namespace cm::core
