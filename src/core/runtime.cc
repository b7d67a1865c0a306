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

sim::Task<bool> Runtime::transfer_impl(ProcId src, ProcId dst, unsigned words,
                                       unsigned budget) {
  const unsigned total = words + cost_.header_words;
  mutable_stats().breakdown.add(Category::kNetworkTransit,
                       network_->latency(src, dst, total));
  if (reliable_ == nullptr) {
    if (ft_ != nullptr && (ft_->suspected(src) || ft_->suspected(dst))) {
      // Raw fire-and-forget sends have no timeout to cancel from: a send
      // touching a suspected NIC would simply never resume its awaiter.
      // Fail fast instead (the reliable path makes the same call inside
      // ReliableTransport::send).
      ++mutable_stats().delivery_failures;
      ++mutable_stats().ft_suspect_aborts;
      if (sim::Tracer* tr = tracer()) {
        tr->record(sim::TraceEvent::kFtAbort, src, {{"dst", dst}, {"why", 0}});
      }
      co_return false;
    }
    co_await sim::suspend_to([this, src, dst,
                              total](std::coroutine_handle<> h) {
      network_->send(src, dst, total, net::Traffic::kRuntime,
                     [h] { h.resume(); });
    });
    co_return true;
  }
  Cycles deadline = 0;
  if (ft_ != nullptr && ft_->send_deadline() != 0) {
    deadline = machine_->engine().now() + ft_->send_deadline();
  }
  co_return co_await reliable_->send(src, dst, total, budget, deadline);
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
  const bool moved =
      co_await transfer_impl(from, dest, live_words,
                             reliable_ ? reliable_cfg_.move_retry_budget : 0);
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

sim::Task<> Runtime::return_home(Ctx& ctx, ProcId origin, unsigned ret_words) {
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
