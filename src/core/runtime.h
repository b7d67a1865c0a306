// The Prelude-style runtime: instance-method calls on global objects with a
// choice of remote-access mechanism per call site.
//
//  * RPC (§2.1): the calling thread blocks; client/server stubs marshal
//    arguments and results; the method body runs in a (possibly new) thread
//    at the object's home; two messages per call.
//
//  * Computation migration (§2.4/§3): `co_await ctx.migrate(obj, live_words)`
//    is the paper's program annotation. It is conditional on locality (free
//    if the object is already local), ships only the live variables of the
//    current activation in ONE message, and re-binds the activation's
//    processor so everything it does afterwards — including further
//    instance-method calls and further migrations — happens at the data.
//    When the activation finally returns, the reply goes directly from
//    wherever it ended up to its caller ("short-circuiting" the return path
//    through intermediate processors).
//
//  * Shared memory (§2.2) is provided by shmem::CoherentMemory; methods then
//    run on the caller's processor against coherently cached data, so the
//    runtime below is not involved in data movement.
//
// The embedding: a simulated thread is a coroutine and the coroutine frame
// is the activation record. `Ctx` carries the activation's current processor
// — migration mutates `ctx.proc`, which is exactly "continue executing this
// frame over there". Nested activations each get their own Ctx, so migrating
// a callee never moves its caller (single-activation migration); helpers for
// multi-activation migration move a parent Ctx along (§6 future work).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "core/cost_model.h"
#include "core/ft.h"
#include "core/location.h"
#include "core/object.h"
#include "core/reliable.h"
#include "core/stats.h"
#include "net/network.h"
#include "sim/machine.h"
#include "sim/oneshot.h"
#include "sim/task.h"
#include "sim/tracer.h"
#include "sim/types.h"

namespace cm::core {

using sim::Cycles;
using sim::ProcId;

class Replicated;
class Runtime;

/// Per-activation execution context. `proc` is where the activation is
/// currently running; computation migration re-binds it.
struct Ctx {
  Runtime* rt = nullptr;
  ProcId proc = 0;

  Ctx(Runtime* r, ProcId p) : rt(r), proc(p) {}
};

/// Per-call options.
struct CallOpts {
  unsigned arg_words = 4;   // request payload
  unsigned ret_words = 2;   // reply payload
  bool short_method = false;  // Active-Messages-style fast path: the paper's
                              // optimisation that skips thread creation for
                              // short methods (e.g. remote record access)
};

class Runtime {
 public:
  Runtime(sim::Machine& machine, net::Network& network, ObjectSpace& objects,
          CostModel cost)
      : machine_(&machine), network_(&network), objects_(&objects),
        cost_(cost) {}

  [[nodiscard]] sim::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] ObjectSpace& objects() noexcept { return *objects_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }

  /// Whole-machine runtime counters.
  [[nodiscard]] const RtStats& stats() const noexcept { return stats_; }

  /// The counters runtime layers (mobile objects, replication) increment.
  [[nodiscard]] RtStats& mutable_stats() noexcept { return stats_; }

  /// The engine's tracer, or null when tracing is disabled.
  [[nodiscard]] sim::Tracer* tracer() const noexcept {
    return machine_->engine().tracer();
  }

  /// The engine's invariant checker, or null when checking is disabled.
  [[nodiscard]] check::Checker* checker() const noexcept {
    return machine_->engine().checker();
  }

  /// Charge cycles on processor `p`, attributed to `cat`.
  [[nodiscard]] auto charge(ProcId p, Cycles cycles, Category cat) {
    mutable_stats().breakdown.add(cat, cycles);
    return machine_->compute(p, cycles);
  }

  /// Charge `cycles` of application work on the activation's current
  /// processor (Table 5 "User code").
  [[nodiscard]] auto compute(Ctx& ctx, Cycles cycles) {
    return charge(ctx.proc, cycles, Category::kUserCode);
  }

  /// Install the reliable transport (seq/ack/retransmit/dedup) over the
  /// current network — required whenever the network injects faults. With
  /// no transport installed, transfers use raw fire-and-forget sends: the
  /// event sequence is bit-identical to the pre-reliability runtime, so
  /// every fault-free figure is unchanged.
  void enable_reliability(ReliableConfig cfg = {}) {
    reliable_cfg_ = cfg;
    reliable_ = std::make_unique<ReliableTransport>(machine_->engine(),
                                                    *network_, stats_, cfg);
    if (ft_ != nullptr) reliable_->set_fault_tolerance(ft_);
  }
  [[nodiscard]] bool reliability_enabled() const noexcept {
    return reliable_ != nullptr;
  }

  /// Install a location service (loc::Locator). With none installed (the
  /// default), every dispatch consults the ObjectSpace oracle directly and
  /// the event sequence is bit-identical to the pre-locator runtime.
  void set_locator(LocationService* loc) noexcept { locator_ = loc; }
  [[nodiscard]] LocationService* locator() const noexcept { return locator_; }

  /// Install a fault-tolerance service (ft::FtLayer). With none installed
  /// (the default), no processor is ever suspected, no send ever aborts and
  /// every code path is bit-identical to the crash-free runtime. The
  /// suspicion source is forwarded to the reliable transport whenever both
  /// are present, in either installation order.
  void set_fault_tolerance(FaultTolerance* ft) noexcept {
    ft_ = ft;
    if (reliable_ != nullptr) reliable_->set_fault_tolerance(ft);
  }
  [[nodiscard]] FaultTolerance* fault_tolerance() const noexcept {
    return ft_;
  }

  /// Replica registry for crash recovery: recovery promotes a valid
  /// core::Replicated copy instead of restoring from backup when a primary's
  /// home fail-stops. Replicated instances register themselves on
  /// construction; registration order is the deterministic scan order.
  void register_replicated(Replicated* r) { replicated_.push_back(r); }
  void unregister_replicated(Replicated* r) {
    std::erase(replicated_, r);
  }
  [[nodiscard]] const std::vector<Replicated*>& replicated_objects()
      const noexcept {
    return replicated_;
  }

  /// Awaitable runtime message src -> dst carrying `words` payload words
  /// (header added here); resumes at delivery time. Returns true once
  /// delivered — always, on this unbounded-retry path; only the bounded
  /// migration MOVE path can report failure.
  [[nodiscard]] sim::Task<bool> transfer(ProcId src, ProcId dst,
                                         unsigned words) {
    return transfer_impl(src, dst, words, /*budget=*/0);
  }

  /// THE ANNOTATION (paper §3.1): migrate the current activation to `obj`'s
  /// processor, shipping `live_words` words of live variables. No-op when
  /// the object is already local — the annotation affects performance only,
  /// never semantics, and costs local accesses nothing.
  [[nodiscard]] sim::Task<> migrate(Ctx& ctx, ObjectId obj,
                                    unsigned live_words) {
    return migrate_impl(&ctx, {}, obj, live_words);
  }

  /// Finish a migratory procedure: if the activation ended away from
  /// `origin`, send its result (`ret_words`) back in a single message — the
  /// short-circuit return, paid once no matter how many hops the activation
  /// made — and re-bind the context to `origin`. Free if it never moved.
  [[nodiscard]] sim::Task<> return_home(Ctx& ctx, ProcId origin,
                                        unsigned ret_words);

  /// Future-work extension (§6): migrate a group of activations together
  /// (e.g. caller + callee). Ships the summed live words in one message and
  /// re-binds every context in `group` to the destination. The same
  /// protocol as `migrate`, run by the group's first activation; an empty
  /// group is a no-op. `group` must outlive the returned task.
  [[nodiscard]] sim::Task<> migrate_group(const std::vector<Ctx*>& group,
                                          ObjectId obj, unsigned live_words) {
    return migrate_impl(group.empty() ? nullptr : group.front(), group, obj,
                        live_words);
  }

  /// Invoke an instance method on `obj`. The body always executes at the
  /// object's home processor (Prelude semantics); if the caller is not
  /// there, this is an RPC. `body(Ctx&)` receives the method activation's
  /// context — if the body migrates (or calls things that do), the reply is
  /// sent from wherever the activation finished, directly to the caller.
  template <class F>
  [[nodiscard]] auto call(Ctx& caller, ObjectId obj, CallOpts opts, F body)
      -> sim::Task<typename std::invoke_result_t<F, Ctx&>::value_type> {
    using R = typename std::invoke_result_t<F, Ctx&>::value_type;
    static_assert(!std::is_void_v<R>,
                  "method bodies return a value; use call<Unit>");

    for (unsigned attempt = 0;; ++attempt) {
      if (ft_ != nullptr) {
        // Typed failure surface: a lost object can never serve the call.
        if (ft_->object_lost(obj)) throw ObjectLostError(obj);
        // An activation stranded on a dead processor restarts on a live
        // one before doing anything else.
        if (ft_->suspected(caller.proc)) co_await evacuate(caller);
      }
      // Every instance-method call checks locality (so this is not an extra
      // cost for computation migration).
      co_await charge(caller.proc, cost_.locality_check,
                      Category::kLocalityCheck);
      ProcId home;
      if (locator_ == nullptr) {
        home = objects_->home_of(obj);
      } else {
        home = co_await locator_->resolve(caller, obj);
      }

      if (home == caller.proc) {
        if (check::Checker* ck = checker()) {
          // The dispatcher claims locality, so the body is about to touch
          // the object's state on this processor: the claim must be ground
          // truth. Sound here because nothing suspends between the
          // resolution's own truth test and this line.
          ck->on_object_access(caller.proc, obj, objects_->home_of(obj),
                               /*write=*/true);
        }
        ++mutable_stats().local_calls;
        Ctx callee{this, home};
        co_return co_await body(callee);
      }

      // ---- client stub ----
      ++mutable_stats().remote_calls;
      if (sim::Tracer* tr = tracer()) {
        tr->record(sim::TraceEvent::kRpcIssue, caller.proc,
                   {{"obj", obj}, {"home", home}, {"words", opts.arg_words}});
      }
      co_await send_path(caller.proc, opts.arg_words);
      const ProcId reply_to = caller.proc;
      const bool arrived =
          co_await transfer(caller.proc, home, opts.arg_words);
      if (!arrived) {
        // Only reachable with a FaultTolerance service installed: the
        // request's peer was suspected (or the send deadline expired)
        // before delivery. Wait for the object's recovery to commit, then
        // re-issue the whole call — the body never started, so the retry
        // cannot double-execute anything.
        ++mutable_stats().ft_call_retries;
        if (ft_ == nullptr || attempt + 1 >= ft_->max_call_retries()) {
          throw FtError("call on object " + std::to_string(obj) +
                        " exhausted its retry budget");
        }
        co_await ft_->await_object(obj);
        continue;
      }
      if (locator_ != nullptr) {
        // The hint we resolved may already be stale: chase the forwarding
        // chain until the request reaches the object's current host.
        home = co_await locator_->forward(obj, home, opts.arg_words,
                                          caller.proc);
        // forward() bails out mid-chase when the object's recovery declares
        // it lost; surface the typed failure before the locality check
        // below could misread the unreachable binding.
        if (ft_ != nullptr && ft_->object_lost(obj)) {
          throw ObjectLostError(obj);
        }
        if (check::Checker* ck = checker()) {
          // forward() just returned the object's current host with no
          // suspension since, so its claim can be tested against ground
          // truth here. (Under the oracle there is no equivalent promise:
          // the body executes at the home fixed at resolution time —
          // Prelude dispatch semantics — even if the object was attracted
          // away mid-flight.)
          ck->on_object_access(home, obj, objects_->home_of(obj),
                               /*write=*/true);
        }
      }
      std::uint64_t check_call = 0;
      if (check::Checker* ck = checker()) {
        // Replied-exactly-once window, opened once the request has really
        // arrived (an aborted request transfer is a retry, not a lost
        // reply): the short-circuit return must deliver this call's reply
        // once, from wherever the activation ends up.
        check_call = ck->on_call_begin(reply_to, obj);
      }

      // ---- server stub (now executing at `home`) ----
      co_await receive_request(home, opts.arg_words,
                               opts.short_method ? Dispatch::kShortMethod
                                                 : Dispatch::kRpcThread);
      if (opts.short_method) {
        ++mutable_stats().fast_path_calls;
      } else {
        ++mutable_stats().threads_created;
      }

      Ctx callee{this, home};
      std::optional<R> result;
      try {
        result.emplace(co_await body(callee));
      } catch (...) {
        // A typed ft failure unwinding out of a nested call: the thrown
        // error replaces this call's reply, so excuse its window.
        if (check::Checker* ck = checker()) {
          ck->on_call_abandoned(check_call);
        }
        throw;
      }

      // ---- reply: sent from wherever the method activation ended up. If
      // it migrated, this short-circuits straight back to the caller. ----
      ++mutable_stats().replies;
      co_await send_path(callee.proc, opts.ret_words);
      const bool replied =
          co_await transfer(callee.proc, reply_to, opts.ret_words);
      if (!replied && ft_ != nullptr) {
        // The activation's processor lost its NIC after the body's effects
        // committed (host state survives a NIC death). Re-running the body
        // would double-apply those effects; instead the caller waits out
        // the object's recovery and reconstructs the result — exactly-once
        // semantics even across the crash.
        ++mutable_stats().ft_recovered_replies;
        if (sim::Tracer* tr = tracer()) {
          tr->record(sim::TraceEvent::kFtReplyRecovered, reply_to,
                     {{"obj", obj}, {"from", callee.proc}});
        }
        co_await ft_->await_object(obj);
      }

      // ---- back at the caller: deliver the reply to the blocked thread --
      co_await receive_reply(reply_to, opts.ret_words);
      if (check::Checker* ck = checker()) {
        ck->on_reply(check_call, reply_to);
      }
      if (sim::Tracer* tr = tracer()) {
        tr->record(sim::TraceEvent::kRpcReply, reply_to,
                   {{"obj", obj}, {"from", callee.proc}});
      }
      co_return std::move(*result);
    }
  }

 private:
  /// How an incoming request is dispatched at the receiver.
  enum class Dispatch {
    kShortMethod,   // Active-Messages fast path: no thread
    kRpcThread,     // general-purpose stub, thread per call (§4.3)
    kContinuation,  // migration: unmarshal into the activation (§3.3)
  };
  /// Receiver-side software path for an incoming request message.
  [[nodiscard]] sim::Machine::Compute receive_request(ProcId at, unsigned words,
                                                      Dispatch how);
  /// Receiver-side path for a reply delivered to a blocked thread.
  [[nodiscard]] sim::Machine::Compute receive_reply(ProcId at, unsigned words);
  /// Sender-side stub path (linkage + marshal + packet + launch), atomic.
  [[nodiscard]] sim::Machine::Compute send_path(ProcId at, unsigned words);
  /// Transfer with an attempt budget (0 = unbounded) under the reliable
  /// transport; raw send when reliability is disabled.
  [[nodiscard]] sim::Task<bool> transfer_impl(ProcId src, ProcId dst,
                                              unsigned words, unsigned budget);
  /// The migration protocol: `top` (null for an empty group) runs the stubs
  /// and every context in `group` follows it; a non-empty `group` also tags
  /// kMigrateBegin with its size.
  [[nodiscard]] sim::Task<> migrate_impl(Ctx* top,
                                         std::span<Ctx* const> group,
                                         ObjectId obj, unsigned live_words);
  /// Rebind an activation stranded on a suspected processor to its
  /// evacuation target, charging thread re-creation there. Requires ft_.
  [[nodiscard]] sim::Task<> evacuate(Ctx& ctx);

  sim::Machine* machine_;
  net::Network* network_;
  ObjectSpace* objects_;
  CostModel cost_;
  RtStats stats_;
  ReliableConfig reliable_cfg_;
  std::unique_ptr<ReliableTransport> reliable_;
  LocationService* locator_ = nullptr;   // null = oracle mode
  FaultTolerance* ft_ = nullptr;         // null = crash-free machine
  std::vector<Replicated*> replicated_;  // replica registry for recovery
};

}  // namespace cm::core
