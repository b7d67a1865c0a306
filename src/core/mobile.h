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
//
// `visit` is every message-passing mechanism's access to a mobile object:
// the activation hops to it (CP, TM), or it is attracted to the activation
// (OBJ), and the method then runs at its home (under RPC, remotely). Its
// awaiter chains `Runtime::Migrate`, or the attraction, and `Runtime::Call`
// without a frame of its own.
#pragma once

#include <coroutine>
#include <type_traits>

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

/// The awaiter of `visit`, in the visiting activation's frame. It makes no
/// frame of its own: a CP or TM hop runs `Migrate`'s steps and completes
/// into the call's first step, OBJ's attraction (a coroutine) completes
/// into it through the runtime's hook helper, and the call runs `Call`'s
/// steps, local or remote, so a visit makes only its body's frame. A hop
/// or an attraction that fails never starts the call; `await_resume`
/// rethrows its exception.
template <class F>
class [[nodiscard]] Visit {
 public:
  using R = typename Runtime::Call<F>::R;

  Visit(Ctx* ctx, Mechanism mech, MobileObject* obj, Runtime::Migrate hop,
        Runtime::Call<F> call) noexcept
      : hop_(hop), call_(call), ctx_(ctx), obj_(obj), mech_(mech) {}

  /// With nothing to bring together first, a lost object fails the visit
  /// before it starts, as it fails a call.
  bool await_ready() { return !moves_to_data(mech_) && call_.await_ready(); }
  void await_suspend(std::coroutine_handle<> caller) {
    const sim::Wake call = call_.follow(caller);
    if (mech_ == Mechanism::kObjectMigration) {
      ctx_->rt->await_hook(obj_->attract(*ctx_), nullptr, call, call);
    } else if (moves_to_data(mech_)) {
      hop_.start(call);
    } else {
      call();
    }
  }
  R await_resume() { return call_.await_resume(); }

 private:
  Runtime::Migrate hop_;
  Runtime::Call<F> call_;  // holds the body
  Ctx* ctx_;
  MobileObject* obj_;
  Mechanism mech_;
};

/// An access to `obj` under a message-passing mechanism: bring the
/// activation and the object together, by migrating the activation with
/// its frame's `frame_words` live words (CP) or with the whole thread's
/// `thread_words` (TM), or by attracting the object to it (OBJ), and then
/// run `body` as a method at the object's home (under RPC, a remote call).
template <class F>
[[nodiscard]] Visit<F> visit(Ctx& ctx, Mechanism mech, MobileObject& obj,
                             CallOpts opts, unsigned frame_words,
                             unsigned thread_words, F body) {
  static_assert(std::is_trivially_destructible_v<Visit<F>>);
  Runtime& rt = *ctx.rt;
  const unsigned words =
      mech == Mechanism::kMigration ? frame_words : thread_words;
  return Visit<F>(&ctx, mech, &obj, rt.migrate(ctx, obj.id(), words),
                  rt.call(ctx, obj.id(), opts, body));
}

}  // namespace cm::core
