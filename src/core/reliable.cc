#include "core/reliable.h"

#include <algorithm>

#include "check/checker.h"
#include "sim/tracer.h"

namespace cm::core {

constexpr sim::Cycles kMaxTimeout = 6400;  // exponential-backoff cap
constexpr unsigned kAckWords = 2;  // ack size on the wire (incl. header)

void ReliableTransport::Send::arrived(sim::Continuation* c) {
  Send& s = *static_cast<Leg*>(c)->send;
  if (c == &s.data) {
    s.transport->on_data(s);
  } else if (c == &s.ack) {
    s.acked = true;
  } else {
    s.transport->on_timeout(s);
  }
}

void ReliableTransport::send(sim::ProcId src, sim::ProcId dst, unsigned words,
                             unsigned budget, sim::Cycles deadline,
                             bool* delivered, sim::Wake then) {
  std::deque<Send>& sends = channels_[{src, dst}];
  const std::uint64_t seq = sends.size();
  Send& s = sends.emplace_back(this, src, dst, words, budget, seq,
                               cfg_.base_timeout, deadline, delivered, then);
  ++stats_->reliable_sends;
  if (check::Checker* ck = engine_->checker()) {
    ck->on_seq_sent(src, dst, seq);
  }
  attempt(s);
}

void ReliableTransport::attempt(Send& s) {
  ++s.attempts;
  if (s.attempts > 1) {
    ++stats_->retransmits;
    if (sim::Tracer* tr = engine_->tracer()) {
      tr->record(sim::TraceEvent::kRetransmit, s.src,
                 {{"dst", s.dst}, {"seq", s.seq}, {"attempt", s.attempts}});
    }
    // The retransmitted copy's wire time is real overhead the fault-free
    // figures never pay; account it like any other transit.
    stats_->breakdown.add(Category::kNetworkTransit,
                          network_->latency(s.src, s.dst, s.words));
  }
  network_->send(s.src, s.dst, s.words, net::Traffic::kRuntime, &s.data);
  engine_->resume_at_on(engine_->current_home(), engine_->now() + s.timeout,
                        &s.expiry);
}

void ReliableTransport::on_data(Send& s) {
  const bool fresh = !s.received;
  s.received = true;
  if (check::Checker* ck = engine_->checker()) {
    // The checker replays the delivery history independently and flags any
    // disagreement with the transport's own dedup verdict.
    ck->on_seq_delivered(s.src, s.dst, s.seq, fresh);
  }
  if (!fresh) {
    ++stats_->dedup_hits;
    if (sim::Tracer* tr = engine_->tracer()) {
      tr->record(sim::TraceEvent::kDedup, s.dst,
                 {{"src", s.src}, {"seq", s.seq}});
    }
  }
  // Ack every copy: the ack for an earlier copy may itself have been lost.
  ++stats_->acks_sent;
  network_->send(s.dst, s.src, kAckWords, net::Traffic::kRuntime, &s.ack);
  if (!fresh) return;
  if (s.done) {
    // The sender already exhausted its budget and took the recovery path;
    // the receiving runtime discards the stale activation instead of
    // running it a second time.
    ++stats_->stale_deliveries;
    return;
  }
  s.done = true;
  *s.delivered = true;
  s.then();
}

void ReliableTransport::give_up(Send& s) {
  ++stats_->delivery_failures;
  if (check::Checker* ck = engine_->checker()) {
    ck->on_seq_abandoned(s.src, s.dst, s.seq);
  }
  s.done = true;
  *s.delivered = false;
  s.then();
}

void ReliableTransport::on_timeout(Send& s) {
  if (s.acked) return;
  ++stats_->timeouts_fired;
  if (sim::Tracer* tr = engine_->tracer()) {
    tr->record(sim::TraceEvent::kTimeout, s.src,
               {{"dst", s.dst}, {"seq", s.seq}});
  }
  if (ft_ != nullptr) {
    // Fail-stop cancellation: stop retrying once the peer is suspected or
    // the send's deadline has passed. If a copy already arrived (delivered
    // but the ack died with the receiver's NIC), the send has succeeded —
    // just stop retransmitting silently; resuming or failing it now would
    // double-settle the awaiter.
    const bool suspect = ft_->suspected(s.dst) || ft_->suspected(s.src);
    const bool expired = s.deadline != 0 && engine_->now() >= s.deadline;
    if (suspect || expired) {
      ++(suspect ? stats_->ft_suspect_aborts : stats_->ft_deadline_aborts);
      if (sim::Tracer* tr = engine_->tracer()) {
        tr->record(sim::TraceEvent::kFtAbort, s.src,
                   {{"dst", s.dst},
                    {"seq", s.seq},
                    {"why", suspect ? 0u : 1u}});
      }
      if (!s.done) give_up(s);
      return;
    }
  }
  if (s.budget != 0 && s.attempts >= s.budget) {
    // A copy that already arrived settled the send (only its acks were
    // lost): stop retransmitting. Otherwise the migration fallback path
    // owns correctness from here.
    if (!s.done) give_up(s);
    return;
  }
  s.timeout = std::min(s.timeout * 2, kMaxTimeout);
  attempt(s);
}

}  // namespace cm::core
