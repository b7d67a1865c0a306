#include "core/reliable.h"

#include <algorithm>
#include <coroutine>

#include "check/checker.h"
#include "sim/task.h"
#include "sim/timer.h"
#include "sim/tracer.h"

namespace cm::core {

struct ReliableTransport::SendState {
  sim::ProcId src = 0;
  sim::ProcId dst = 0;
  unsigned words = 0;
  unsigned budget = 0;  // 0 = unbounded
  std::uint64_t seq = 0;
  unsigned attempts = 0;
  sim::Cycles timeout = 0;
  sim::Cycles deadline = 0;  // absolute give-up cycle; 0 = none
  bool acked = false;
  bool done = false;       // the awaiter has been resumed...
  bool delivered = false;  // ...because a copy arrived (vs. giving up)
  std::coroutine_handle<> waiter;
  sim::Timer timer;

  explicit SendState(sim::Engine& e) : timer(e) {}
};

sim::Task<bool> ReliableTransport::send(sim::ProcId src, sim::ProcId dst,
                                        unsigned words, unsigned budget,
                                        sim::Cycles deadline) {
  auto st = std::make_shared<SendState>(*engine_);
  st->src = src;
  st->dst = dst;
  st->words = words;
  st->budget = budget;
  st->deadline = deadline;
  st->seq = channel(src, dst).next_seq++;
  st->timeout = cfg_.base_timeout;
  ++stats_->reliable_sends;
  if (check::Checker* ck = engine_->checker()) {
    ck->on_seq_sent(src, dst, st->seq);
  }
  // The awaiter is bound to a named local before awaiting: the capture owns
  // a shared_ptr, and `co_await` on a prvalue awaiter miscounts the
  // temporary's lifetime under GCC 12.2 (destroys the captured state twice).
  // See the note on suspend_to in sim/task.h.
  auto arm_and_wait = sim::suspend_to([this, st](std::coroutine_handle<> h) {
    st->waiter = h;
    attempt(st);
  });
  co_await arm_and_wait;
  co_return st->delivered;
}

void ReliableTransport::attempt(const std::shared_ptr<SendState>& st) {
  ++st->attempts;
  if (st->attempts > 1) {
    ++stats_->retransmits;
    if (sim::Tracer* tr = engine_->tracer()) {
      tr->record(sim::TraceEvent::kRetransmit, st->src,
                 {{"dst", st->dst}, {"seq", st->seq}, {"attempt", st->attempts}});
    }
    // The retransmitted copy's wire time is real overhead the fault-free
    // figures never pay; account it like any other transit.
    stats_->breakdown.add(Category::kNetworkTransit,
                          network_->latency(st->src, st->dst, st->words));
  }
  network_->send(st->src, st->dst, st->words, net::Traffic::kRuntime,
                 [this, st] { on_data(st); });
  st->timer.arm(st->timeout, [this, st] { on_timeout(st); });
}

void ReliableTransport::on_data(const std::shared_ptr<SendState>& st) {
  const bool fresh = channel(st->src, st->dst).delivered.insert(st->seq).second;
  if (check::Checker* ck = engine_->checker()) {
    // The checker replays the delivery history independently and flags any
    // disagreement with the transport's own dedup verdict.
    ck->on_seq_delivered(st->src, st->dst, st->seq, fresh);
  }
  if (!fresh) {
    ++stats_->dedup_hits;
    if (sim::Tracer* tr = engine_->tracer()) {
      tr->record(sim::TraceEvent::kDedup, st->dst,
                 {{"src", st->src}, {"seq", st->seq}});
    }
  }
  // Ack every copy: the ack for an earlier copy may itself have been lost.
  ++stats_->acks_sent;
  network_->send(st->dst, st->src, cfg_.ack_words, net::Traffic::kRuntime,
                 [st] {
                   st->acked = true;
                   st->timer.cancel();
                 });
  if (!fresh) return;
  if (st->done) {
    // The sender already exhausted its budget and took the recovery path;
    // the receiving runtime discards the stale activation instead of
    // running it a second time.
    ++stats_->stale_deliveries;
    return;
  }
  st->done = true;
  st->delivered = true;
  st->waiter.resume();
}

void ReliableTransport::on_timeout(const std::shared_ptr<SendState>& st) {
  if (st->acked) return;
  ++stats_->timeouts_fired;
  if (sim::Tracer* tr = engine_->tracer()) {
    tr->record(sim::TraceEvent::kTimeout, st->src,
               {{"dst", st->dst}, {"seq", st->seq}});
  }
  if (ft_ != nullptr) {
    // Fail-stop cancellation: stop retrying once the peer is suspected or
    // the send's deadline has passed. If a copy already arrived (delivered
    // but the ack died with the receiver's NIC), the send has succeeded —
    // just stop retransmitting silently; resuming or failing it now would
    // double-settle the awaiter.
    const bool suspect = ft_->suspected(st->dst) || ft_->suspected(st->src);
    const bool expired =
        st->deadline != 0 && engine_->now() >= st->deadline;
    if (suspect || expired) {
      if (suspect) {
        ++stats_->ft_suspect_aborts;
      } else {
        ++stats_->ft_deadline_aborts;
      }
      if (sim::Tracer* tr = engine_->tracer()) {
        tr->record(sim::TraceEvent::kFtAbort, st->src,
                   {{"dst", st->dst},
                    {"seq", st->seq},
                    {"why", suspect ? 0u : 1u}});
      }
      if (!st->done) {
        ++stats_->delivery_failures;
        if (check::Checker* ck = engine_->checker()) {
          // Excuse the seq from the end-of-run gapless check, exactly like
          // a bounded-budget give-up: recovery owns correctness from here.
          ck->on_seq_abandoned(st->src, st->dst, st->seq);
        }
        st->done = true;
        st->waiter.resume();
      }
      return;
    }
  }
  if (st->budget != 0 && st->attempts >= st->budget) {
    ++stats_->delivery_failures;
    if (check::Checker* ck = engine_->checker()) {
      // Bounded-budget give-up: excuse this seq from the end-of-run gapless
      // check — the migration fallback path owns correctness from here.
      ck->on_seq_abandoned(st->src, st->dst, st->seq);
    }
    if (!st->done) {
      st->done = true;  // gave up before any copy arrived: wake the sender
      st->waiter.resume();
    }
    return;
  }
  st->timeout = std::min(st->timeout * 2, cfg_.max_timeout);
  attempt(st);
}

}  // namespace cm::core
