// Emerald-style object migration [JLHB88]: the object moves (without
// replication) to the processor that accesses it; subsequent accesses from
// that processor are local, until another processor attracts it away.
//
// This is the mechanism the paper wanted to compare against ("We would like
// to compare our results to object migration, such as the mechanism in
// Emerald, but our group has not finished implementing object migration in
// Prelude yet"). The expected behaviour, borne out by the ablation bench:
// great when one thread has an affinity run to the object, pathological for
// write-shared objects (the balancers, the B-tree root), which ping-pong
// with their full state in tow.
#pragma once

#include "core/mechanism.h"
#include "core/runtime.h"
#include "sim/async_mutex.h"

namespace cm::core {

class MobileObject {
 public:
  /// `size_words` is the payload shipped when the object moves.
  MobileObject(Runtime& rt, ObjectId id, unsigned size_words)
      : rt_(&rt), id_(id), size_words_(size_words) {}

  [[nodiscard]] ObjectId id() const noexcept { return id_; }
  [[nodiscard]] unsigned size_words() const noexcept { return size_words_; }
  [[nodiscard]] ProcId home() const { return rt_->objects().home_of(id_); }

  /// Pull the object to `ctx.proc` if it is elsewhere: a control request to
  /// its current home, the object's state back, and a rebind of its home.
  /// Free when already local. Concurrent movers serialise.
  [[nodiscard]] sim::Task<> attract(Ctx& ctx);

  [[nodiscard]] std::uint64_t moves() const noexcept { return moves_; }

 private:
  Runtime* rt_;
  ObjectId id_;
  unsigned size_words_;
  sim::AsyncMutex transfer_lock_;
  std::uint64_t moves_ = 0;
};

/// Bring the activation and `obj` together before an access; callers pass
/// only a mechanism with moves_to_data(mech). Migrates the activation with
/// its frame's `frame_words` live words (CP) or with the whole thread's
/// `thread_words` (TM), or attracts the object to it (OBJ). A plain function
/// returning the mechanism's own task, so it adds no coroutine frame.
[[nodiscard]] inline sim::Task<> approach(Ctx& ctx, Mechanism mech,
                                          MobileObject& obj,
                                          unsigned frame_words,
                                          unsigned thread_words) {
  if (mech == Mechanism::kObjectMigration) return obj.attract(ctx);
  return ctx.rt->migrate(
      ctx, obj.id(),
      mech == Mechanism::kMigration ? frame_words : thread_words);
}

}  // namespace cm::core
