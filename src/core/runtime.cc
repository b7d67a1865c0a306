#include "core/runtime.h"

namespace cm::core {

// The three software paths below each run as ONE atomic CPU charge: a real
// message handler (or stub) runs to completion on its processor, so
// concurrent activations queue FCFS behind whole handlers rather than
// interleaving at instruction granularity. The per-category cycles are still
// recorded individually for the Table-5 breakdown. They are plain functions,
// not coroutines: each books its categories when called and returns the
// charge for its caller to await, so a stub takes no coroutine frame.

sim::Machine::Compute Runtime::receive_request(ProcId at, unsigned words,
                                               Dispatch how) {
  const bool create_thread = how != Dispatch::kShortMethod;
  if (create_thread) {
    if (sim::Tracer* tr = tracer()) {
      tr->record(sim::TraceEvent::kThreadCreate, at,
                 {{"continuation", how == Dispatch::kContinuation}});
    }
  }
  Breakdown& bd = mutable_stats().breakdown;
  bd.add(Category::kCopyPacket, cost_.copy(words));
  bd.add(Category::kRecvAllocPacket, cost_.alloc_packet_recv());
  bd.add(Category::kForwardingCheck, cost_.forwarding_check);
  bd.add(Category::kUnmarshal, cost_.unmarshal(words));
  bd.add(Category::kOidTranslation, cost_.oid());
  if (create_thread) bd.add(Category::kThreadCreation, cost_.thread_creation);
  bd.add(Category::kScheduler, cost_.scheduler);
  bd.add(Category::kRecvLinkage, cost_.recv_linkage);
  Cycles total = cost_.receiver_total(words, create_thread);
  if (how == Dispatch::kRpcThread) {
    bd.add(Category::kGeneralStub, cost_.rpc_stub_extra(words));
    total += cost_.rpc_stub_extra(words);
  }
  return machine_->compute(at, total);
}

sim::Machine::Compute Runtime::receive_reply(ProcId at, unsigned words) {
  Breakdown& bd = mutable_stats().breakdown;
  bd.add(Category::kCopyPacket, cost_.copy(words));
  bd.add(Category::kUnmarshal, cost_.unmarshal(words));
  bd.add(Category::kScheduler, cost_.scheduler);
  return machine_->compute(at, cost_.reply_receive(words));
}

sim::Machine::Compute Runtime::send_path(ProcId at, unsigned words) {
  Breakdown& bd = mutable_stats().breakdown;
  bd.add(Category::kSendLinkage, cost_.send_linkage);
  bd.add(Category::kMarshal, cost_.marshal(words));
  bd.add(Category::kSendAllocPacket, cost_.alloc_packet_send());
  bd.add(Category::kMessageSend, cost_.message_send);
  return machine_->compute(at, cost_.sender_total(words));
}

unsigned Runtime::book_transit(ProcId src, ProcId dst, unsigned words) {
  const unsigned total = words + cost_.header_words;
  stats_.breakdown.add(Category::kNetworkTransit,
                       network_->latency(src, dst, total));
  return total;
}

bool Runtime::Transfer::await_suspend(std::coroutine_handle<> caller) {
  const unsigned total = rt->book_transit(src, dst, words);
  FaultTolerance* const ft = rt->ft_;
  if (ft != nullptr && (ft->suspected(src) || ft->suspected(dst))) {
    // A message touching a suspected NIC can never be delivered or acked:
    // fail fast instead of sending it. A raw send would never resume its
    // awaiter, and a reliable one would burn a full timeout ladder.
    ++rt->stats_.delivery_failures;
    ++rt->stats_.ft_suspect_aborts;
    if (sim::Tracer* tr = rt->tracer()) {
      tr->record(sim::TraceEvent::kFtAbort, src, {{"dst", dst}, {"why", 0}});
    }
    return false;
  }
  if (rt->reliable_ == nullptr) {
    delivered = true;
    rt->network_->send_resume(src, dst, total, net::Traffic::kRuntime,
                              caller);
    return true;
  }
  Cycles deadline = 0;
  if (ft != nullptr && ft->send_deadline() != 0) {
    deadline = rt->machine_->engine().now() + ft->send_deadline();
  }
  // A later delivery or timeout event resumes the caller.
  rt->send_reliably(*this, caller, total, deadline);
  return true;
}

sim::Detached Runtime::send_reliably(Transfer& t,
                                     std::coroutine_handle<> caller,
                                     unsigned total, Cycles deadline) {
  t.delivered =
      co_await reliable_->send(t.src, t.dst, total, t.budget, deadline);
  caller.resume();
}

sim::Task<> Runtime::evacuate(Ctx& ctx) {
  const ProcId from = ctx.proc;
  const ProcId to = ft_->evacuation_target(from);
  ++mutable_stats().ft_evacuations;
  if (sim::Tracer* tr = tracer()) {
    tr->record(sim::TraceEvent::kFtEvacuate, from, {{"to", to}});
  }
  // The refuge processor restarts the activation from its coroutine frame
  // (host-side state survives a NIC death): a fresh thread plus a
  // scheduling pass, charged there.
  mutable_stats().breakdown.add(Category::kThreadCreation, cost_.thread_creation);
  mutable_stats().breakdown.add(Category::kScheduler, cost_.scheduler);
  co_await machine_->compute(to, cost_.thread_creation + cost_.scheduler);
  ctx.proc = to;
}

// ---- The frame-free paths. Each step below is one engine event of the
// coroutine it stands in for (migrate_impl, return_home_impl) in a run with
// no optional service installed: the same charges through the same
// functions, in the same order, from the same events. ----

std::coroutine_handle<> Runtime::Migrate::await_suspend(
    std::coroutine_handle<> caller) {
  this->caller = caller;
  if (!rt->frame_free()) {
    return task_.start(rt->migrate_impl(top_, group_, obj_, live_words_),
                       caller);
  }
  // The locality check is shared with ordinary instance-method dispatch.
  next<&Migrate::checked>();
  rt->charge(top_->proc, rt->cost_.locality_check, Category::kLocalityCheck)
      .then(this);
  return std::noop_coroutine();
}

void Runtime::Migrate::checked() {
  dest_ = rt->objects_->home_of(obj_);
  if (dest_ == top_->proc) {
    // Already local: the annotation costs nothing (paper §3.1).
    ++rt->stats_.migrations_local;
    caller.resume();
    return;
  }
  // Continuation client stub: marshal the live variables and launch one
  // message.
  next<&Migrate::sent>();
  rt->send_path(top_->proc, live_words_).then(this);
}

void Runtime::Migrate::sent() {
  const unsigned total = rt->book_transit(top_->proc, dest_, live_words_);
  next<&Migrate::delivered>();
  rt->network_->send_resume(top_->proc, dest_, total, net::Traffic::kRuntime,
                            this);
}

void Runtime::Migrate::delivered() {
  ++rt->stats_.migrations;
  rt->stats_.migrated_words += live_words_;
  // Continuation server stub: unmarshal into a fresh activation.
  next<&Migrate::unpacked>();
  rt->receive_request(dest_, live_words_, Dispatch::kContinuation).then(this);
}

void Runtime::Migrate::unpacked() {
  ++rt->stats_.threads_created;
  top_->proc = dest_;
  for (Ctx* c : group_) c->proc = dest_;
  caller.resume();  // the migrated frame runs on, at the data
}

std::coroutine_handle<> Runtime::ReturnHome::await_suspend(
    std::coroutine_handle<> caller) {
  this->caller = caller;
  if (!frame_free_) {
    return task_.start(rt->return_home_impl(*ctx_, origin_, ret_words_),
                       caller);
  }
  ++rt->stats_.replies;
  next<&ReturnHome::sent>();
  rt->send_path(ctx_->proc, ret_words_).then(this);
  return std::noop_coroutine();
}

void Runtime::ReturnHome::sent() {
  const unsigned total = rt->book_transit(ctx_->proc, origin_, ret_words_);
  next<&ReturnHome::delivered>();
  rt->network_->send_resume(ctx_->proc, origin_, total,
                            net::Traffic::kRuntime, this);
}

void Runtime::ReturnHome::delivered() {
  next<&ReturnHome::received>();
  rt->receive_reply(origin_, ret_words_).then(this);
}

void Runtime::ReturnHome::received() {
  ctx_->proc = origin_;
  caller.resume();
}

// ---- The coroutine paths. ----

sim::Task<> Runtime::migrate_impl(Ctx* top, std::span<Ctx* const> group,
                                  ObjectId obj, unsigned live_words) {
  if (top == nullptr) co_return;  // an empty group
  if (ft_ != nullptr && ft_->suspected(top->proc)) co_await evacuate(*top);
  // The locality check is shared with ordinary instance-method dispatch.
  co_await charge(top->proc, cost_.locality_check, Category::kLocalityCheck);
  ProcId dest;
  if (locator_ == nullptr) {
    dest = objects_->home_of(obj);
  } else {
    dest = co_await locator_->resolve(*top, obj);
  }
  if (dest == top->proc) {
    // Already local: the annotation costs nothing (paper §3.1).
    if (check::Checker* ck = checker()) {
      ck->on_object_access(top->proc, obj, objects_->home_of(obj),
                           /*write=*/false);
    }
    ++mutable_stats().migrations_local;
    co_return;
  }

  // Continuation client stub: marshal the live variables of this activation
  // and launch a single message. (§3.2: "the continuation procedure's body
  // is the continuation of the migrating procedure at the point of
  // migration; its arguments are the live variables at that point".) A
  // group's message carries the live words of every activation in it:
  // marshaling/unmarshaling scale with the total, but the fixed per-message
  // costs are paid once — the point of multi-activation migration.
  const ProcId from = top->proc;
  if (sim::Tracer* tr = tracer()) {
    if (group.empty()) {
      tr->record(sim::TraceEvent::kMigrateBegin, from,
                 {{"obj", obj}, {"dest", dest}, {"words", live_words}});
    } else {
      tr->record(sim::TraceEvent::kMigrateBegin, from,
                 {{"obj", obj},
                  {"dest", dest},
                  {"words", live_words},
                  {"group", group.size()}});
    }
  }
  co_await send_path(from, live_words);
  const bool moved = co_await Transfer{this, from, dest, live_words,
                                       reliable_cfg_.move_retry_budget};
  if (!moved) {
    // Recovery path: the MOVE exhausted its retry budget, so the activation
    // (and its group) stays where it is and subsequent accesses to the
    // object go through plain RPC at its home — the annotation still
    // changes only performance, never semantics, even on a faulty network.
    // A late copy of the MOVE is discarded at the destination by the
    // reliable layer.
    ++mutable_stats().migration_fallbacks;
    if (sim::Tracer* tr = tracer()) {
      tr->record(sim::TraceEvent::kMigrateFallback, from,
                 {{"obj", obj}, {"dest", dest}});
    }
    co_return;
  }
  ++mutable_stats().migrations;
  mutable_stats().migrated_words += live_words;
  if (locator_ != nullptr) {
    // Chase forwarding pointers if the object moved while the continuation
    // was in flight; the activation lands wherever the object now lives.
    dest = co_await locator_->forward(obj, dest, live_words, from);
    if (check::Checker* ck = checker()) {
      // Synchronous after the chase: forward()'s claim is testable truth.
      ck->on_object_access(dest, obj, objects_->home_of(obj),
                           /*write=*/false);
    }
  }

  // Continuation server stub at the destination: unmarshal the live
  // variables into a fresh activation and a thread to run it. The original
  // thread at the source is destroyed (its linkage information travelled
  // with the message), so the eventual return short-circuits.
  co_await receive_request(dest, live_words, Dispatch::kContinuation);
  ++mutable_stats().threads_created;
  if (sim::Tracer* tr = tracer()) {
    tr->record(sim::TraceEvent::kMigrateArrive, dest,
               {{"obj", obj}, {"from", from}, {"words", live_words}});
  }

  // The activation (with the rest of its group) now runs at the data.
  top->proc = dest;
  for (Ctx* c : group) c->proc = dest;
}

sim::Task<> Runtime::return_home_impl(Ctx& ctx, ProcId origin,
                                      unsigned ret_words) {
  if (ft_ != nullptr && ft_->suspected(ctx.proc)) co_await evacuate(ctx);
  if (ctx.proc == origin) co_return;
  ++mutable_stats().replies;
  if (sim::Tracer* tr = tracer()) {
    tr->record(sim::TraceEvent::kShortCircuitReply, ctx.proc,
               {{"origin", origin}, {"words", ret_words}});
  }
  co_await send_path(ctx.proc, ret_words);
  const bool delivered = co_await transfer(ctx.proc, origin, ret_words);
  if (!delivered && ft_ != nullptr) {
    // The short-circuit reply's source NIC died mid-send: the origin
    // reconstructs the result from the activation's frame, exactly as in
    // call()'s reply-recovery path. The effects already committed.
    ++mutable_stats().ft_recovered_replies;
    if (sim::Tracer* tr = tracer()) {
      tr->record(sim::TraceEvent::kFtReplyRecovered, origin,
                 {{"from", ctx.proc}});
    }
  }
  co_await receive_reply(origin, ret_words);
  ctx.proc = origin;
}

}  // namespace cm::core
