// The node-access layer's shared half. Each B-tree or counting-network
// operation picks its layer once, from its mechanism (`with_access`): under
// shared memory a visit to a node (tree node, balancer, counter) runs at
// the requester against the node's coherent lines (`RunHere`); under RPC,
// CP, OBJ and TM it runs as a method at the node's home (`core::visit`,
// whose awaiter the operation awaits directly, so a visit makes no frame
// beyond its body's, remote call or not). Each app writes its operations
// once, as templates over its two layers.
#pragma once

#include <coroutine>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/mechanism.h"
#include "core/runtime.h"
#include "shmem/coherent_memory.h"
#include "sim/task.h"

namespace cm::apps {

/// A task that throws `error` to its awaiter before any simulated step: how
/// an operation that picks its layer without a frame of its own fails.
template <class T, class E>
sim::Task<T> rejected(E error) {
  throw std::move(error);
  co_return T{};
}

/// Returns `op(sm)` under shared memory and `op(mp)` otherwise: the one
/// place the applications test their mechanism. Under shared memory without
/// `mem`, the task throws std::invalid_argument to its awaiter instead.
template <class Sm, class Mp, class Op>
auto with_access(core::Mechanism mech, const shmem::CoherentMemory* mem, Sm sm,
                 Mp mp, Op op) -> decltype(op(mp)) {
  if (mech != core::Mechanism::kSharedMemory) return op(mp);
  if (mem == nullptr) {
    return rejected<typename decltype(op(mp))::value_type>(
        std::invalid_argument("shared memory needs a CoherentMemory"));
  }
  return op(sm);
}

/// The shared-memory visit: runs `body` at the requester, and keeps `body`
/// (whose coroutine refers to its captures) until it is done. As a call's,
/// `body` captures only pointers, references and integers: the awaiter is
/// awaited as a prvalue, safe from GCC 12.2's double destruction only while
/// it is trivially destructible (see suspend_to, task.h).
template <class F>
class [[nodiscard]] RunHere {
 public:
  using R = typename std::invoke_result_t<F, core::Ctx&>::value_type;

  RunHere(core::Ctx& ctx, F body) noexcept : ctx_(&ctx), body_(body) {
    static_assert(std::is_trivially_destructible_v<RunHere>);
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
    return task_.start(body_(*ctx_), caller);
  }
  R await_resume() { return task_.take(); }

 private:
  core::Ctx* ctx_;
  F body_;
  sim::Started<R> task_;
};

}  // namespace cm::apps
