#include "core/runtime.h"

namespace cm::core {

// The three software paths below each run as ONE atomic CPU charge: a real
// message handler (or stub) runs to completion on its processor, so
// concurrent activations queue FCFS behind whole handlers rather than
// interleaving at instruction granularity. The per-category cycles are still
// recorded individually for the Table-5 breakdown. They are plain functions,
// not coroutines: each books its categories when called and returns the
// charge, which the protocol step that called it hands its next step to
// (`Compute::then`), so a stub takes no coroutine frame.

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

bool Runtime::send_message(ProcId src, ProcId dst, unsigned words,
                           unsigned budget, bool* delivered, sim::Wake then) {
  // Table 5's network transit, booked for every message, sent or not.
  const unsigned total = words + cost_.header_words;
  stats_.breakdown.add(Category::kNetworkTransit,
                       network_->latency(src, dst, total));
  if (suspected(src) || suspected(dst)) {
    // A message touching a suspected NIC can never be delivered or acked:
    // fail fast instead of sending it. A raw send would never wake its
    // sender, and a reliable one would burn a full timeout ladder.
    ++stats_.delivery_failures;
    ++stats_.ft_suspect_aborts;
    if (sim::Tracer* tr = tracer()) {
      tr->record(sim::TraceEvent::kFtAbort, src, {{"dst", dst}, {"why", 0}});
    }
    *delivered = false;
    return false;
  }
  if (reliable_ == nullptr) {
    *delivered = true;
    // A raw send: the network is lossless here, because a Stack installs
    // the reliable transport whenever a fault plan is active, and a drop is
    // then the transport's to repair, not this branch's.
    // simlint: allow SS002
    network_->send(src, dst, total, net::Traffic::kRuntime, then);
    return true;
  }
  Cycles deadline = 0;
  if (ft_ != nullptr && ft_->send_deadline() != 0) {
    deadline = machine_->engine().now() + ft_->send_deadline();
  }
  // A later delivery or timeout event wakes `then`.
  reliable_->send(src, dst, total, budget, deadline, delivered, then);
  return true;
}

// ---- The protocols. Each step below is one engine event, or a hook's
// sub-task, or a test inside one, in protocol order. The call's steps, a
// template's, are in runtime.h. ----

void Runtime::Migrate::start(sim::Wake then) {
  done = then;
  if (evacuate<&Migrate::check>(*top_)) return;
  check();
}

void Runtime::Migrate::check() {
  // The locality check is shared with ordinary instance-method dispatch.
  next<&Migrate::checked>();
  rt->charge(top_->proc, rt->cost_.locality_check, Category::kLocalityCheck)
      .then(this);
}

void Runtime::Migrate::checked() {
  locate<&Migrate::located>(*top_, obj_, &dest_);
}

void Runtime::Migrate::located() {
  const ProcId from = top_->proc;
  if (dest_ == from) {
    // Already local: the annotation costs nothing (paper §3.1).
    if (check::Checker* ck = rt->checker()) {
      ck->on_object_access(from, obj_, rt->objects_->home_of(obj_),
                           /*write=*/false);
    }
    ++rt->stats_.migrations_local;
    done();
    return;
  }
  // Continuation client stub: marshal the live variables of this activation
  // and launch a single message. (§3.2: "the continuation procedure's body
  // is the continuation of the migrating procedure at the point of
  // migration; its arguments are the live variables at that point".) A
  // group's message carries the live words of every activation in it:
  // marshaling/unmarshaling scale with the total, but the fixed per-message
  // costs are paid once — the point of multi-activation migration.
  if (sim::Tracer* tr = rt->tracer()) {
    if (group_ == nullptr) {
      tr->record(sim::TraceEvent::kMigrateBegin, from,
                 {{"obj", obj_}, {"dest", dest_}, {"words", live_words_}});
    } else {
      tr->record(sim::TraceEvent::kMigrateBegin, from,
                 {{"obj", obj_},
                  {"dest", dest_},
                  {"words", live_words_},
                  {"group", group_->size()}});
    }
  }
  next<&Migrate::sent>();
  rt->send_path(from, live_words_).then(this);
}

void Runtime::Migrate::sent() {
  transmit<&Migrate::delivered>(top_->proc, dest_, live_words_,
                                rt->reliable_cfg_.move_retry_budget, &moved_);
}

void Runtime::Migrate::delivered() {
  if (!moved_) {
    // Recovery path: the MOVE exhausted its retry budget, so the activation
    // (and its group) stays where it is and subsequent accesses to the
    // object go through plain RPC at its home — the annotation still
    // changes only performance, never semantics, even on a faulty network.
    // A late copy of the MOVE is discarded at the destination by the
    // reliable layer.
    ++rt->stats_.migration_fallbacks;
    if (sim::Tracer* tr = rt->tracer()) {
      tr->record(sim::TraceEvent::kMigrateFallback, top_->proc,
                 {{"obj", obj_}, {"dest", dest_}});
    }
    done();
    return;
  }
  ++rt->stats_.migrations;
  rt->stats_.migrated_words += live_words_;
  if (LocationService* loc = rt->locator_) {
    // Chase forwarding pointers if the object moved while the continuation
    // was in flight; the activation lands wherever the object now lives.
    after<&Migrate::arrived>(
        loc->forward(obj_, dest_, live_words_, top_->proc), &dest_);
    return;
  }
  arrived();
}

void Runtime::Migrate::arrived() {
  if (rt->locator_ != nullptr) {
    if (check::Checker* ck = rt->checker()) {
      // Synchronous after the chase: forward()'s claim is testable truth.
      ck->on_object_access(dest_, obj_, rt->objects_->home_of(obj_),
                           /*write=*/false);
    }
  }
  // Continuation server stub at the destination: unmarshal the live
  // variables into a fresh activation and a thread to run it. The original
  // thread at the source is destroyed (its linkage information travelled
  // with the message), so the eventual return short-circuits.
  next<&Migrate::unpacked>();
  rt->receive_request(dest_, live_words_, Dispatch::kContinuation).then(this);
}

void Runtime::Migrate::unpacked() {
  ++rt->stats_.threads_created;
  if (sim::Tracer* tr = rt->tracer()) {
    tr->record(sim::TraceEvent::kMigrateArrive, dest_,
               {{"obj", obj_}, {"from", top_->proc}, {"words", live_words_}});
  }
  // The activation (with the rest of its group) now runs at the data.
  top_->proc = dest_;
  if (group_ != nullptr) {
    for (Ctx* c : *group_) c->proc = dest_;
  }
  done();  // the migrated frame (or its visit's call) runs on, at the data
}

void Runtime::ReturnHome::await_suspend(std::coroutine_handle<> caller) {
  done = caller;
  if (evacuate<&ReturnHome::leave>(*ctx_)) return;
  leave();
}

void Runtime::ReturnHome::leave() {
  if (ctx_->proc == origin_) {
    done();
    return;
  }
  ++rt->stats_.replies;
  if (sim::Tracer* tr = rt->tracer()) {
    tr->record(sim::TraceEvent::kShortCircuitReply, ctx_->proc,
               {{"origin", origin_}, {"words", ret_words_}});
  }
  next<&ReturnHome::sent>();
  rt->send_path(ctx_->proc, ret_words_).then(this);
}

void Runtime::ReturnHome::sent() {
  transmit<&ReturnHome::delivered>(ctx_->proc, origin_, ret_words_,
                                   /*budget=*/0, &delivered_);
}

void Runtime::ReturnHome::delivered() {
  if (!delivered_ && rt->ft_ != nullptr) {
    // The short-circuit reply's source NIC died mid-send: the origin
    // reconstructs the result from the activation's frame, exactly as a
    // remote call recovers its reply. The effects already committed.
    ++rt->stats_.ft_recovered_replies;
    if (sim::Tracer* tr = rt->tracer()) {
      tr->record(sim::TraceEvent::kFtReplyRecovered, origin_,
                 {{"from", ctx_->proc}});
    }
  }
  next<&ReturnHome::received>();
  rt->receive_reply(origin_, ret_words_).then(this);
}

void Runtime::ReturnHome::received() {
  ctx_->proc = origin_;
  done();
}

}  // namespace cm::core
