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
// live in the awaiting frame and run their protocol without a coroutine
// frame of their own: each is a step machine (a `sim::Continuation`), so the
// suspended frame is the continuation that travels. A local call resumes
// straight into the method body; a remote one runs the paper's four RPC
// steps (client stub, request, server stub and body, reply) as steps of
// its awaiter, and the body completes into the step that replies. A
// protocol completes into a `sim::Wake`, the awaiting coroutine or the
// next protocol's first step, so core::visit (mobile.h) chains a hop and a
// call with no frame between them. Every optional service (ft, locator,
// reliable transport, tracer, checker) hooks into these steps, so
// installing one never changes which code a protocol runs; a hook that
// takes simulated time runs as a pooled sub-task only when its service is
// installed.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
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
template <class F>
class Visit;

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

  // core::visit's awaiter starts OBJ's attraction through `await_hook`.
  template <class F>
  friend class Visit;

 private:
  /// The base of each awaiter below: the Continuation the engine wakes, and
  /// the wake it completes into when the protocol is done: the awaiting
  /// coroutine, or the next protocol's Continuation (a visit's call after
  /// its hop, core::Visit). A step `S` of awaiter `A` is a member function;
  /// `next<S>()` makes it the one the next wake runs. An exception a step
  /// throws is parked in the runtime and the protocol completes at once;
  /// the awaiter's `await_resume` rethrows it, so it reaches the awaiting
  /// coroutine, as it would from a coroutine, and never escapes the
  /// engine's run loop. The steps below it are the services' hooks that
  /// more than one protocol shares.
  template <class A>
  struct FrameFree : sim::Continuation {
    Runtime* rt;
    sim::Wake done = std::coroutine_handle<>();

    explicit FrameFree(Runtime* r) noexcept : rt(r) {}

    template <void (A::*S)()>
    void next() noexcept { run = &guarded<S>; }

    /// ft: an activation stranded on a suspected processor restarts on its
    /// refuge before it does anything else. The refuge runs it on from its
    /// frame (host-side state survives a NIC death): a fresh thread plus a
    /// scheduling pass, charged there, and then step S. The activation is
    /// bound to its refuge at once; nothing reads its processor before the
    /// charge completes. Returns false, having done nothing, when `ctx` is
    /// not stranded.
    template <void (A::*S)()>
    bool evacuate(Ctx& ctx) {
      if (!rt->suspected(ctx.proc)) [[likely]] return false;
      const ProcId to = rt->ft_->evacuation_target(ctx.proc);
      ++rt->stats_.ft_evacuations;
      if (sim::Tracer* tr = rt->tracer()) {
        tr->record(sim::TraceEvent::kFtEvacuate, ctx.proc, {{"to", to}});
      }
      const CostModel& c = rt->cost_;
      rt->stats_.breakdown.add(Category::kThreadCreation, c.thread_creation);
      rt->stats_.breakdown.add(Category::kScheduler, c.scheduler);
      ctx.proc = to;
      next<S>();
      rt->machine_->compute(to, c.thread_creation + c.scheduler).then(this);
      return true;
    }

    /// Where `ctx`'s dispatcher finds `obj`: the oracle's answer at once, or
    /// the locator's `resolve`, which takes simulated time. Stores it in
    /// `*home`, then runs step S.
    template <void (A::*S)()>
    void locate(Ctx& ctx, ObjectId obj, ProcId* home) {
      if (LocationService* loc = rt->locator_) {
        after<S>(loc->resolve(ctx, obj), home);
        return;
      }
      *home = rt->objects_->home_of(obj);
      (static_cast<A*>(this)->*S)();
    }

    /// Await a service's sub-task through `await_hook`: its value goes to
    /// `*into` and step S runs next; its exception completes the protocol.
    template <void (A::*S)(), class T>
    void after(sim::Task<T> hook, std::type_identity_t<T>* into) {
      next<S>();
      rt->await_hook(std::move(hook), into, this, done);
    }

    /// Send one runtime message through `send_message`, then run step S:
    /// once it is delivered, or once the reliable transport gives up on
    /// it, or at once when ft fails it before it is sent. `*delivered`
    /// says which.
    template <void (A::*S)()>
    void transmit(ProcId src, ProcId dst, unsigned words, unsigned budget,
                  bool* delivered) {
      next<S>();
      if (!rt->send_message(src, dst, words, budget, delivered, this)) {
        (static_cast<A*>(this)->*S)();
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
  /// The awaiter of one runtime message: `co_await` sends it through
  /// `send_message` and suspends the caller until it is delivered, then
  /// yields whether it was. It is a plain struct in the caller's frame, not
  /// a coroutine. Without a reliable transport the message wakes the
  /// caller itself (`Network::send`), from one engine resume event; with
  /// one, the transport's send record does. A
  /// message touching a processor the FaultTolerance service suspects
  /// yields false at once, without suspending or sending.
  struct [[nodiscard]] Transfer {
    Runtime* rt;
    ProcId src;
    ProcId dst;
    unsigned words;  // payload; the header is added on sending
    bool delivered = false;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> caller) {
      return rt->send_message(src, dst, words, /*budget=*/0, &delivered,
                              caller);
    }
    bool await_resume() const {
      rt->raise_parked();
      return delivered;
    }
  };
  // `co_await rt.transfer(...)` awaits a prvalue: safe from GCC 12.2's
  // double destruction only while this holds (see `suspend_to`, task.h).
  // The awaiters below are awaited the same way and assert the same.
  static_assert(std::is_trivially_destructible_v<Transfer>);

  /// Awaitable runtime message src -> dst carrying `words` payload words;
  /// resumes at delivery time. Yields true once delivered: always, unless a
  /// FaultTolerance service gives up on it.
  [[nodiscard]] Transfer transfer(ProcId src, ProcId dst, unsigned words) {
    return Transfer{this, src, dst, words};
  }

  /// The awaiter of `migrate` and `migrate_group`, in the migrating
  /// activation's frame. It runs the hop as a Continuation, one engine
  /// event per locality check, stub charge and transfer, and the frame it
  /// resumes at the destination is the migrated continuation itself (§3.2).
  class [[nodiscard]] Migrate : public FrameFree<Migrate> {
   public:
    /// `top` is null for an empty group, which makes the hop a no-op;
    /// `group` is null for a hop of `top` alone.
    Migrate(Runtime* rt, Ctx* top, const std::vector<Ctx*>* group, ObjectId obj,
            unsigned live_words) noexcept
        : FrameFree(rt),
          top_(top),
          group_(group),
          obj_(obj),
          live_words_(live_words) {}

    bool await_ready() const noexcept { return top_ == nullptr; }
    void await_suspend(std::coroutine_handle<> caller) { start(caller); }
    void await_resume() { rt->raise_parked(); }

    /// Run the hop (with a non-empty group) and wake `then` once the
    /// activation is at the data, or has stayed, or at once when a step
    /// parks an exception.
    void start(sim::Wake then);

   private:
    // The steps, defined in runtime.cc, the only file that calls them. They
    // are inline so that each compiles into the handler (`guarded`) that
    // runs it: out of line, the hop measured 5 % slower on `counting_cp`.
    inline void check();      // charge the locality check
    inline void checked();    // the locality check is done: find the object
    inline void located();    // go, or stay
    inline void sent();       // the client stub ran: launch the message
    inline void delivered();  // the message arrived, or the MOVE gave up
    inline void arrived();    // at the object: run the server stub
    inline void unpacked();   // the activation is rebuilt at the data

    Ctx* top_;
    const std::vector<Ctx*>* group_;
    ObjectId obj_;
    unsigned live_words_;
    ProcId dest_ = 0;
    bool moved_ = false;
  };
  static_assert(std::is_trivially_destructible_v<Migrate>);

  /// The awaiter of `return_home`. A return that has nothing to do (the
  /// activation never left, and its processor is not suspected) does not
  /// suspend at all; one that has runs its steps as a Continuation.
  class [[nodiscard]] ReturnHome : public FrameFree<ReturnHome> {
   public:
    ReturnHome(Runtime* rt, Ctx* ctx, ProcId origin,
               unsigned ret_words) noexcept
        : FrameFree(rt), ctx_(ctx), origin_(origin), ret_words_(ret_words) {}

    bool await_ready() const noexcept {
      return ctx_->proc == origin_ && !rt->suspected(origin_);
    }
    void await_suspend(std::coroutine_handle<> caller);
    void await_resume() { rt->raise_parked(); }

   private:
    // Defined in runtime.cc and inline, as Migrate's steps are.
    inline void leave();      // send the reply, or stay: at the origin
    inline void sent();       // the reply stub ran: launch the reply
    inline void delivered();  // the reply arrived, or was lost with its NIC
    inline void received();   // the origin has the result

    Ctx* ctx_;
    ProcId origin_;
    unsigned ret_words_;
    bool delivered_ = false;
  };
  static_assert(std::is_trivially_destructible_v<ReturnHome>);

  /// The awaiter of `call`: the whole call protocol as a Continuation. It
  /// charges the locality check and resumes a local call straight into the
  /// body's frame; a remote call runs its stubs, messages and services as
  /// further steps, and the body completes into the step that replies, so
  /// neither adds a frame of the call's own. `F` must be trivially
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

    Call(Runtime* rt, Ctx* caller, ObjectId obj, CallOpts opts,
         F body) noexcept
        : FrameFree<Call>(rt),
          ctx_(caller),
          obj_(obj),
          arg_words_(opts.arg_words),
          ret_words_(opts.ret_words),
          short_method_(opts.short_method),
          body_(body),
          callee_(rt, 0) {}

    /// A lost object fails the call before it starts, without suspending.
    bool await_ready() { return lost(); }
    void await_suspend(std::coroutine_handle<> caller) { follow(caller)(); }
    R await_resume() {
      if (this->rt->parked_ != nullptr && task_.started()) [[unlikely]] {
        (void)task_.take();  // a step failed after the body returned
      }
      this->rt->raise_parked();
      return task_.take();
    }

    /// Ready the call to run for `caller`, and return the wake that runs
    /// its first step, for the hop or attraction before it (core::Visit)
    /// to complete into.
    sim::Wake follow(std::coroutine_handle<> caller) noexcept {
      this->done = caller;
      this->template next<&Call::start>();
      return this;
    }

   private:
    void start() {
      // What ran before the call failed, or left its object lost: the
      // call never starts.
      if (this->rt->parked_ != nullptr || lost()) {
        this->done();
        return;
      }
      if (this->template evacuate<&Call::check>(*ctx_)) return;
      check();
    }

    void check() {
      Runtime& rt = *this->rt;
      this->template next<&Call::checked>();
      // Every instance-method call checks locality (so this is not an
      // extra cost for computation migration).
      rt.charge(ctx_->proc, rt.cost_.locality_check, Category::kLocalityCheck)
          .then(this);
    }

    void checked() {
      this->template locate<&Call::dispatch>(*ctx_, obj_, &callee_.proc);
    }

    void dispatch() {
      Runtime& rt = *this->rt;
      const ProcId home = callee_.proc;
      if (home == ctx_->proc) {
        if (check::Checker* ck = rt.checker()) {
          // The dispatcher claims locality, so the body is about to touch
          // the object's state on this processor: the claim must be ground
          // truth. Sound here because nothing suspends between the
          // resolution's own truth test and this line.
          ck->on_object_access(home, obj_, rt.objects_->home_of(obj_),
                               /*write=*/true);
        }
        ++rt.stats_.local_calls;
        task_.start(body_(callee_), this->done).resume();
        return;
      }
      // ---- client stub ----
      ++rt.stats_.remote_calls;
      if (sim::Tracer* tr = rt.tracer()) {
        tr->record(sim::TraceEvent::kRpcIssue, ctx_->proc,
                   {{"obj", obj_}, {"home", home}, {"words", arg_words_}});
      }
      this->template next<&Call::request>();
      rt.send_path(ctx_->proc, arg_words_).then(this);
    }

    void request() {  // the client stub ran: send the request
      reply_to_ = ctx_->proc;
      this->template transmit<&Call::requested>(
          reply_to_, callee_.proc, arg_words_, /*budget=*/0, &delivered_);
    }

    void requested() {  // the request arrived, or ft failed it
      Runtime& rt = *this->rt;
      if (!delivered_) {
        // Only reachable with a FaultTolerance service installed: the
        // request's peer was suspected (or the send deadline expired)
        // before delivery. Wait for the object's recovery to commit, then
        // re-issue the whole call, from its first step: the body never
        // started, so the retry cannot double-execute anything.
        ++rt.stats_.ft_call_retries;
        if (rt.ft_ == nullptr || ++attempt_ >= rt.ft_->max_call_retries()) {
          throw FtError("call on object " + std::to_string(obj_) +
                        " exhausted its retry budget");
        }
        this->template after<&Call::start>(rt.ft_->await_object(obj_),
                                           nullptr);
        return;
      }
      if (LocationService* loc = rt.locator_) {
        // The hint we resolved may already be stale: chase the forwarding
        // chain until the request reaches the object's current host.
        this->template after<&Call::forwarded>(
            loc->forward(obj_, callee_.proc, arg_words_, ctx_->proc),
            &callee_.proc);
        return;
      }
      serve();
    }

    void forwarded() {  // the chase ended at the object's current host
      Runtime& rt = *this->rt;
      // forward() bails out mid-chase when the object's recovery declares
      // it lost; surface the typed failure before the server stub could
      // misread the unreachable binding.
      if (rt.ft_ != nullptr && rt.ft_->object_lost(obj_)) {
        throw ObjectLostError(obj_);
      }
      if (check::Checker* ck = rt.checker()) {
        // forward() just returned the object's current host with no
        // suspension since, so its claim can be tested against ground
        // truth here. (Under the oracle there is no equivalent promise:
        // the body executes at the home fixed at resolution time, Prelude
        // dispatch semantics, even if the object was attracted away
        // mid-flight.)
        ck->on_object_access(callee_.proc, obj_, rt.objects_->home_of(obj_),
                             /*write=*/true);
      }
      serve();
    }

    void serve() {  // ---- server stub, at the object's home ----
      Runtime& rt = *this->rt;
      if (check::Checker* ck = rt.checker()) {
        // Replied-exactly-once window, opened once the request has really
        // arrived (an aborted request is a retry, not a lost reply): the
        // reply must be delivered once, from wherever the activation ends.
        window_ = ck->on_call_begin(reply_to_, obj_);
      }
      this->template next<&Call::served>();
      rt.receive_request(callee_.proc, arg_words_,
                         short_method_ ? Dispatch::kShortMethod
                                       : Dispatch::kRpcThread)
          .then(this);
    }

    void served() {  // run the body, which completes into `returned`
      Runtime& rt = *this->rt;
      if (short_method_) {
        ++rt.stats_.fast_path_calls;
      } else {
        ++rt.stats_.threads_created;
      }
      this->template next<&Call::returned>();
      task_.start(body_(callee_), this).resume();
    }

    void returned() {  // the body's activation ended
      Runtime& rt = *this->rt;
      if (task_.failed()) {
        // A typed ft failure unwinding out of a nested call: the thrown
        // error replaces this call's reply, so excuse its window.
        // `await_resume` rethrows it.
        if (check::Checker* ck = rt.checker()) ck->on_call_abandoned(window_);
        this->done();
        return;
      }
      // ---- reply: sent from wherever the method activation ended up. If
      // it migrated, this short-circuits straight back to the caller. ----
      ++rt.stats_.replies;
      this->template next<&Call::reply>();
      rt.send_path(callee_.proc, ret_words_).then(this);
    }

    void reply() {  // the reply stub ran: send the reply
      this->template transmit<&Call::replied>(
          callee_.proc, reply_to_, ret_words_, /*budget=*/0, &delivered_);
    }

    void replied() {  // the reply arrived, or was lost with its NIC
      Runtime& rt = *this->rt;
      if (!delivered_ && rt.ft_ != nullptr) {
        // The activation's processor lost its NIC after the body's effects
        // committed (host state survives a NIC death). Re-running the body
        // would double-apply those effects; instead the caller waits out
        // the object's recovery and reconstructs the result: exactly-once
        // semantics even across the crash.
        ++rt.stats_.ft_recovered_replies;
        if (sim::Tracer* tr = rt.tracer()) {
          tr->record(sim::TraceEvent::kFtReplyRecovered, reply_to_,
                     {{"obj", obj_}, {"from", callee_.proc}});
        }
        this->template after<&Call::receive>(rt.ft_->await_object(obj_),
                                             nullptr);
        return;
      }
      receive();
    }

    void receive() {  // ---- back at the caller: the receive stub ----
      Runtime& rt = *this->rt;
      this->template next<&Call::received>();
      rt.receive_reply(reply_to_, ret_words_).then(this);
    }

    void received() {  // deliver the reply to the blocked thread
      Runtime& rt = *this->rt;
      if (check::Checker* ck = rt.checker()) ck->on_reply(window_, reply_to_);
      if (sim::Tracer* tr = rt.tracer()) {
        tr->record(sim::TraceEvent::kRpcReply, reply_to_,
                   {{"obj", obj_}, {"from", callee_.proc}});
      }
      this->done();
    }

    /// ft: a lost object can never serve the call (the typed failure
    /// surface). Parks the error and returns true when `obj_` is lost.
    bool lost() {
      FaultTolerance* const ft = this->rt->ft_;
      if (ft == nullptr || !ft->object_lost(obj_)) [[likely]] return false;
      this->rt->parked_ = std::make_exception_ptr(ObjectLostError(obj_));
      return true;
    }

    // CallOpts is kept as its fields, so that its flag and the delivery
    // flag share one word.
    Ctx* ctx_;
    std::uint64_t window_ = 0;  // the checker's replied-exactly-once window
    ObjectId obj_;
    unsigned arg_words_;
    unsigned ret_words_;
    unsigned attempt_ = 0;  // requests ft failed so far
    ProcId reply_to_ = 0;   // the caller's processor when it sent
    bool short_method_;
    bool delivered_ = false;  // the last request or reply got through
    F body_;
    Ctx callee_;            // the body's activation; its home, once located
    sim::Started<R> task_;  // the body, until the call completes
  };

  /// THE ANNOTATION (paper §3.1): `co_await rt.migrate(ctx, obj,
  /// live_words)` migrates the current activation to `obj`'s processor,
  /// shipping `live_words` words of live variables. No-op when the object
  /// is already local — the annotation affects performance only, never
  /// semantics, and costs local accesses nothing.
  [[nodiscard]] Migrate migrate(Ctx& ctx, ObjectId obj, unsigned live_words) {
    return Migrate(this, &ctx, nullptr, obj, live_words);
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
    return Migrate(this, group.empty() ? nullptr : group.front(), &group, obj,
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
  /// Whether ft suspects processor `p`.
  [[nodiscard]] bool suspected(ProcId p) const {
    return ft_ != nullptr && ft_->suspected(p);
  }
  /// Rethrow the exception a step or a hook parked, if any: the first
  /// thing in each awaiter's `await_resume`.
  void raise_parked() {
    if (parked_ != nullptr) [[unlikely]] {
      std::rethrow_exception(std::exchange(parked_, nullptr));
    }
  }
  /// The one send function behind every runtime message: book its network
  /// transit (Table 5); fail the message at once, sending nothing and
  /// scheduling nothing, when ft suspects either end (returns false); else
  /// send it and wake `then` once it is delivered. `*delivered` says
  /// whether it was. With a reliable transport the send makes `budget`
  /// attempts (0 = retry forever) and wakes `then` with its verdict from
  /// the transport's record; without one it is a raw resume delivery.
  bool send_message(ProcId src, ProcId dst, unsigned words, unsigned budget,
                    bool* delivered, sim::Wake then);
  /// Await `hook`, the pooled sub-task of a service hook that takes
  /// simulated time (a locator's resolve or forward, OBJ's attraction),
  /// store its value in `*into` and wake `then`; or park
  /// its exception and wake `failed`. Its frame lives only while the hook
  /// runs, and it schedules no event of its own, so a step machine that
  /// runs a hook through it keeps the events and labels of a coroutine
  /// awaiting the hook directly.
  template <class T>
  sim::Detached await_hook(sim::Task<T> hook, std::type_identity_t<T>* into,
                           sim::Wake then, sim::Wake failed) {
    std::exception_ptr error;
    try {
      sim::Task<T> task = std::move(hook);  // freed before the next step
      if constexpr (std::is_void_v<T>) {
        co_await std::move(task);
      } else {
        *into = co_await std::move(task);
      }
    } catch (...) {
      error = std::current_exception();
    }
    if (error == nullptr) {
      then();
    } else {
      parked_ = std::move(error);
      failed();
    }
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
  // A step's or a hook's exception, parked for its awaiter's await_resume.
  std::exception_ptr parked_;
};

}  // namespace cm::core
