// The Prelude-style runtime: instance-method calls on global objects with a
// choice of remote-access mechanism per call site.
//
//  * RPC (§2.1): the calling thread blocks; client/server stubs marshal
//    arguments and results; the method body runs in a (possibly new) thread
//    at the object's home; two messages per call.
//
//  * Computation migration (§2.4/§3): `co_await rt.migrate(ctx, obj,
//    live_words)` is the paper's program annotation. It is conditional on
//    locality (free if the object is already local), ships only the live
//    variables of the current activation in ONE message, and re-binds the
//    activation's processor so everything it does afterwards — including
//    further instance-method calls and further migrations — happens at the
//    data. When the activation finally returns (`return_home`), the reply
//    goes directly from wherever it ended up to its caller
//    ("short-circuiting" the return path through intermediate processors).
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
//
// `migrate`, `migrate_group`, `return_home` and `call` return awaiters that
// live in the awaiting frame. With no optional service installed they run
// the protocol without a coroutine frame of their own (`frame_free()`): the
// suspended frame is the continuation that travels, and a local call resumes
// straight into the method body. A frame-free protocol completes into a
// `sim::Wake`, the awaiting coroutine or the next protocol's Continuation,
// so core::visit (mobile.h) chains a hop and a call with no frame between
// them. Any service (ft, locator, reliable transport, tracer, checker)
// selects the pooled coroutines that carry its hooks; both paths book the
// same costs and schedule the same events.
#pragma once

#include <coroutine>
#include <exception>
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

  /// Whether the awaiters below run frame-free: no fault-tolerance service,
  /// locator, reliable transport, tracer or checker is installed. Otherwise
  /// they run the pooled coroutines (`migrate_impl`, `return_home_impl`,
  /// `call_impl`), which hold those services' extra steps: evacuation,
  /// locator chases, retries, checker windows and trace records.
  [[nodiscard]] bool frame_free() const noexcept {
    const sim::Engine& eng = machine_->engine();
    return ft_ == nullptr && locator_ == nullptr && reliable_ == nullptr &&
           eng.tracer() == nullptr && eng.checker() == nullptr;
  }

 private:
  /// The base of each frame-free awaiter below: the Continuation the engine
  /// wakes, and the wake it completes into when the protocol is done: the
  /// awaiting coroutine, or the next protocol's Continuation (a visit's
  /// call after its hop, core::Visit). A step `S` of awaiter `A` is a
  /// member function; `next<S>()` makes it the one the next wake runs. An
  /// exception a step throws is parked in the runtime and the protocol
  /// completes at once; the awaiter's `await_resume` rethrows it, so it
  /// reaches the awaiting coroutine, as it would from a coroutine, and
  /// never escapes the engine's run loop.
  template <class A>
  struct FrameFree : sim::Continuation {
    Runtime* rt;
    sim::Wake done = std::coroutine_handle<>();

    explicit FrameFree(Runtime* r) noexcept : rt(r) {}

    template <void (A::*S)()>
    void next() noexcept { run = &guarded<S>; }

    /// First thing in `await_resume`: rethrow what a step parked.
    void raise_parked() const {
      if (rt->parked_ != nullptr) [[unlikely]] {
        std::rethrow_exception(std::exchange(rt->parked_, nullptr));
      }
    }

   private:
    template <void (A::*S)()>
    static void guarded(sim::Continuation* c) {
      A& a = static_cast<A&>(*c);
      try {
        (a.*S)();
        return;  // `a` may be gone: the step may have completed
      } catch (...) {
        a.rt->parked_ = std::current_exception();
      }
      a.done();
    }
  };

 public:
  /// The awaiter of one runtime message: `co_await` books its network
  /// transit, sends it and suspends the caller until it is delivered, then
  /// yields whether it was. It is a plain struct in the caller's frame, not
  /// a coroutine. Without a reliable transport the message is a resume
  /// delivery (`Network::send_resume`), so the caller wakes from one engine
  /// resume event. With one, a pooled `sim::Detached` coroutine awaits
  /// `ReliableTransport::send`, writes its result here and resumes the
  /// caller. A message touching a processor the FaultTolerance service
  /// suspects yields false at once, without suspending or sending.
  struct [[nodiscard]] Transfer {
    Runtime* rt;
    ProcId src;
    ProcId dst;
    unsigned words;   // payload; the header is added on sending
    unsigned budget;  // reliable send attempts; 0 = retry forever
    bool delivered = false;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller);
    bool await_resume() const noexcept { return delivered; }
  };
  // `co_await rt.transfer(...)` awaits a prvalue: safe from GCC 12.2's
  // double destruction only while this holds (see `suspend_to`, task.h).
  // The awaiters below are awaited the same way and assert the same.
  static_assert(std::is_trivially_destructible_v<Transfer>);

  /// Awaitable runtime message src -> dst carrying `words` payload words;
  /// resumes at delivery time. Yields true once delivered: always, unless a
  /// FaultTolerance service gives up on it. (Only the bounded migration MOVE
  /// can fail otherwise.)
  [[nodiscard]] Transfer transfer(ProcId src, ProcId dst, unsigned words) {
    return Transfer{this, src, dst, words, /*budget=*/0};
  }

  /// The awaiter of `migrate` and `migrate_group`, in the migrating
  /// activation's frame. Frame-free, it runs `migrate_impl`'s steps as a
  /// Continuation, one engine event per locality check, stub charge and
  /// transfer, and the frame it resumes at the destination is the migrated
  /// continuation itself (§3.2). Otherwise it runs `migrate_impl`.
  class [[nodiscard]] Migrate : public FrameFree<Migrate> {
   public:
    /// `top` is null for an empty group, which makes the hop a no-op.
    Migrate(Runtime* rt, Ctx* top, std::span<Ctx* const> group, ObjectId obj,
            unsigned live_words) noexcept
        : FrameFree(rt),
          top_(top),
          group_(group),
          obj_(obj),
          live_words_(live_words) {}

    bool await_ready() const noexcept { return top_ == nullptr; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller);
    void await_resume() {
      raise_parked();
      if (task_.started()) task_.take();
    }

    /// Run the hop frame-free (on a frame-free runtime, with a non-empty
    /// group) and wake `then` once the activation is at the data, or at
    /// once when a step parks an exception.
    void start(sim::Wake then);

   private:
    void checked();    // the locality check is done: go, or stay
    void sent();       // the client stub ran: launch the message
    void delivered();  // the message arrived: run the server stub
    void unpacked();   // the activation is rebuilt at the data

    Ctx* top_;
    std::span<Ctx* const> group_;
    ObjectId obj_;
    unsigned live_words_;
    ProcId dest_ = 0;
    sim::Started<void> task_;  // the coroutine path's migrate_impl
  };
  static_assert(std::is_trivially_destructible_v<Migrate>);

  /// The awaiter of `return_home`. Frame-free, a return that has nothing to
  /// send (the activation never left) does not suspend at all, and one that
  /// has runs `return_home_impl`'s steps as a Continuation. Otherwise it
  /// runs `return_home_impl`.
  class [[nodiscard]] ReturnHome : public FrameFree<ReturnHome> {
   public:
    ReturnHome(Runtime* rt, Ctx* ctx, ProcId origin,
               unsigned ret_words) noexcept
        : FrameFree(rt), ctx_(ctx), origin_(origin), ret_words_(ret_words) {}

    bool await_ready() noexcept {
      frame_free_ = rt->frame_free();
      return frame_free_ && ctx_->proc == origin_;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller);
    void await_resume() {
      raise_parked();
      if (task_.started()) task_.take();
    }

   private:
    void sent();       // the reply stub ran: launch the reply
    void delivered();  // the reply arrived: deliver it to the thread
    void received();   // the origin has the result

    Ctx* ctx_;
    ProcId origin_;
    unsigned ret_words_;
    bool frame_free_ = false;
    sim::Started<void> task_;  // the coroutine path's return_home_impl
  };
  static_assert(std::is_trivially_destructible_v<ReturnHome>);

  /// The awaiter of `call`. Frame-free, it charges the locality check as a
  /// Continuation, then resumes a local call straight into the body's frame
  /// and a remote one into `call_remote`, so neither adds a frame of the
  /// call's own. Otherwise it runs `call_impl`. `F` must be trivially
  /// destructible: the awaiter holds the body callable.
  template <class F>
  class [[nodiscard]] Call : public FrameFree<Call<F>> {
   public:
    using R = typename std::invoke_result_t<F, Ctx&>::value_type;
    static_assert(!std::is_void_v<R>,
                  "method bodies return a value; one with nothing to return "
                  "yields a placeholder such as 0");
    static_assert(std::is_trivially_destructible_v<F>,
                  "method bodies capture only pointers, references and "
                  "integers (see suspend_to, task.h)");

    Call(Runtime* rt, Ctx* caller, ObjectId obj, CallOpts opts, F body) noexcept
        : FrameFree<Call>(rt),
          ctx_(caller),
          obj_(obj),
          opts_(opts),
          body_(body),
          callee_(rt, 0) {}

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) {
      Runtime& rt = *this->rt;
      if (!rt.frame_free()) {
        return delegate(rt.call_impl<R>(*ctx_, obj_, opts_, body_, 0), caller);
      }
      follow(caller);
      check();
      return std::noop_coroutine();
    }
    R await_resume() {
      this->raise_parked();
      return task_.take();
    }

    /// Frame-free: ready the call to run for `caller`, and return the wake
    /// that runs its first step, for the hop before it (core::Visit) to
    /// complete into.
    sim::Wake follow(std::coroutine_handle<> caller) noexcept {
      caller_ = caller;
      this->done = caller;
      this->template next<&Call::check>();
      return this;
    }

    /// Hand the call to `protocol` (call_impl, or a visit's coroutine
    /// path), run for `caller`; returns the handle that starts it, and
    /// `await_resume` yields its result.
    std::coroutine_handle<> delegate(sim::Task<R> protocol,
                                     std::coroutine_handle<> caller) noexcept {
      return task_.start(std::move(protocol), caller);
    }

   private:
    void check() {
      Runtime& rt = *this->rt;
      if (rt.parked_ != nullptr) {
        // The hop before this call failed: the call never starts.
        caller_.resume();
        return;
      }
      this->template next<&Call::dispatch>();
      // Every instance-method call checks locality (so this is not an
      // extra cost for computation migration).
      rt.charge(ctx_->proc, rt.cost_.locality_check, Category::kLocalityCheck)
          .then(this);
    }

    void dispatch() {
      Runtime& rt = *this->rt;
      const ProcId home = rt.objects_->home_of(obj_);
      if (home == ctx_->proc) {
        ++rt.stats_.local_calls;
        callee_.proc = home;
        task_.start(body_(callee_), caller_).resume();
        return;
      }
      sim::Task<R> remote =
          rt.call_remote<R>(*ctx_, obj_, home, opts_, body_, 0);
      task_.start(std::move(remote), caller_).resume();
    }

    std::coroutine_handle<> caller_;  // whom the body or call_remote resumes
    Ctx* ctx_;
    ObjectId obj_;
    CallOpts opts_;
    F body_;
    Ctx callee_;            // the local body's activation
    sim::Started<R> task_;  // the body, call_remote or call_impl
  };

  /// THE ANNOTATION (paper §3.1): `co_await rt.migrate(ctx, obj,
  /// live_words)` migrates the current activation to `obj`'s processor,
  /// shipping `live_words` words of live variables. No-op when the object
  /// is already local — the annotation affects performance only, never
  /// semantics, and costs local accesses nothing.
  [[nodiscard]] Migrate migrate(Ctx& ctx, ObjectId obj, unsigned live_words) {
    return Migrate(this, &ctx, {}, obj, live_words);
  }

  /// Finish a migratory procedure: if the activation ended away from
  /// `origin`, send its result (`ret_words`) back in a single message — the
  /// short-circuit return, paid once no matter how many hops the activation
  /// made — and re-bind the context to `origin`. Free if it never moved.
  [[nodiscard]] ReturnHome return_home(Ctx& ctx, ProcId origin,
                                       unsigned ret_words) {
    return ReturnHome(this, &ctx, origin, ret_words);
  }

  /// Future-work extension (§6): migrate a group of activations together
  /// (e.g. caller + callee). Ships the summed live words in one message and
  /// re-binds every context in `group` to the destination. The same
  /// protocol as `migrate`, run by the group's first activation; an empty
  /// group is a no-op. `group` must outlive the returned awaiter.
  [[nodiscard]] Migrate migrate_group(const std::vector<Ctx*>& group,
                                      ObjectId obj, unsigned live_words) {
    return Migrate(this, group.empty() ? nullptr : group.front(), group, obj,
                   live_words);
  }

  /// Invoke an instance method on `obj`. The body always executes at the
  /// object's home processor (Prelude semantics); if the caller is not
  /// there, this is an RPC. `body(Ctx&)` receives the method activation's
  /// context — if the body migrates (or calls things that do), the reply is
  /// sent from wherever the activation finished, directly to the caller.
  template <class F>
  [[nodiscard]] Call<F> call(Ctx& caller, ObjectId obj, CallOpts opts, F body) {
    static_assert(std::is_trivially_destructible_v<Call<F>>);
    return Call<F>(this, &caller, obj, opts, body);
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
  /// Book a runtime message's network transit (Table 5) and return its
  /// size on the wire, header included.
  unsigned book_transit(ProcId src, ProcId dst, unsigned words);
  /// The reliable path of `t`: awaits the transport's send of `total`
  /// words, stores its result in `t` and resumes `caller`.
  sim::Detached send_reliably(Transfer& t, std::coroutine_handle<> caller,
                              unsigned total, Cycles deadline);
  /// The migration protocol: `top` (null for an empty group) runs the stubs
  /// and every context in `group` follows it; a non-empty `group` also tags
  /// kMigrateBegin with its size.
  [[nodiscard]] sim::Task<> migrate_impl(Ctx* top,
                                         std::span<Ctx* const> group,
                                         ObjectId obj, unsigned live_words);
  /// The short-circuit return protocol behind `return_home`.
  [[nodiscard]] sim::Task<> return_home_impl(Ctx& ctx, ProcId origin,
                                             unsigned ret_words);
  /// Rebind an activation stranded on a suspected processor to its
  /// evacuation target, charging thread re-creation there. Requires ft_.
  [[nodiscard]] sim::Task<> evacuate(Ctx& ctx);

  /// The call protocol with every service hook, attempt number `attempt`:
  /// dispatch (ft checks, locality check, resolution), then the body here
  /// or `call_remote`.
  template <class R, class F>
  sim::Task<R> call_impl(Ctx& caller, ObjectId obj, CallOpts opts, F body,
                         unsigned attempt) {
    if (ft_ != nullptr) {
      // Typed failure surface: a lost object can never serve the call.
      if (ft_->object_lost(obj)) throw ObjectLostError(obj);
      // An activation stranded on a dead processor restarts on a live
      // one before doing anything else.
      if (ft_->suspected(caller.proc)) co_await evacuate(caller);
    }
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
    co_return co_await call_remote<R>(caller, obj, home, opts, body, attempt);
  }

  /// The remote half of `call`, from the client stub to the reply, run by
  /// both paths. A request that could not be delivered (only with a
  /// FaultTolerance service) waits out the object's recovery and re-issues
  /// the whole call as attempt `attempt + 1`.
  template <class R, class F>
  sim::Task<R> call_remote(Ctx& caller, ObjectId obj, ProcId home,
                           CallOpts opts, F body, unsigned attempt) {
    // ---- client stub ----
    ++mutable_stats().remote_calls;
    if (sim::Tracer* tr = tracer()) {
      tr->record(sim::TraceEvent::kRpcIssue, caller.proc,
                 {{"obj", obj}, {"home", home}, {"words", opts.arg_words}});
    }
    co_await send_path(caller.proc, opts.arg_words);
    const ProcId reply_to = caller.proc;
    const bool arrived = co_await transfer(caller.proc, home, opts.arg_words);
    if (!arrived) {
      // Only reachable with a FaultTolerance service installed: the
      // request's peer was suspected (or the send deadline expired) before
      // delivery. Wait for the object's recovery to commit, then re-issue
      // the whole call — the body never started, so the retry cannot
      // double-execute anything.
      ++mutable_stats().ft_call_retries;
      if (ft_ == nullptr || attempt + 1 >= ft_->max_call_retries()) {
        throw FtError("call on object " + std::to_string(obj) +
                      " exhausted its retry budget");
      }
      co_await ft_->await_object(obj);
      co_return co_await call_impl<R>(caller, obj, opts, body, attempt + 1);
    }
    if (locator_ != nullptr) {
      // The hint we resolved may already be stale: chase the forwarding
      // chain until the request reaches the object's current host.
      home = co_await locator_->forward(obj, home, opts.arg_words, caller.proc);
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
        ck->on_object_access(home, obj, objects_->home_of(obj), /*write=*/true);
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
      // would double-apply those effects; instead the caller waits out the
      // object's recovery and reconstructs the result — exactly-once
      // semantics even across the crash.
      ++mutable_stats().ft_recovered_replies;
      if (sim::Tracer* tr = tracer()) {
        tr->record(sim::TraceEvent::kFtReplyRecovered, reply_to,
                   {{"obj", obj}, {"from", callee.proc}});
      }
      co_await ft_->await_object(obj);
    }

    // ---- back at the caller: deliver the reply to the blocked thread ----
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
  // A frame-free step's exception, parked for its awaiter's await_resume.
  std::exception_ptr parked_;
};

}  // namespace cm::core
